#include "core/tuple_compactor.h"

namespace tc {

Status TupleCompactor::Transform(std::string_view payload, Buffer* out,
                                 bool* rewritten) {
  VectorRecordView view(reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size());
  TC_RETURN_IF_ERROR(view.Validate());
  if (view.compacted()) {
    // Already on dictionary IDs. IDs are globally stable once assigned
    // (never reused, never renumbered), so the bytes are correct under every
    // future schema — pass through without decoding.
    out->assign(payload.begin(), payload.end());
    if (rewritten != nullptr) *rewritten = false;
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  TC_RETURN_IF_ERROR(InferAndCompactVectorRecord(view, *type_, &schema_, out));
  if (rewritten != nullptr) *rewritten = true;
  return Status::OK();
}

Status TupleCompactor::OnRemovedVersion(std::string_view old_payload) {
  std::lock_guard<std::mutex> lock(mu_);
  VectorRecordView view(reinterpret_cast<const uint8_t*>(old_payload.data()),
                        old_payload.size());
  return RemoveVectorRecord(view, *type_, &schema_);
}

Status TupleCompactor::SchemaBlob(Buffer* out) {
  std::lock_guard<std::mutex> lock(mu_);
  SerializeSchema(schema_, out);
  return Status::OK();
}

Status TupleCompactor::OnRecoveredSchema(const Buffer& blob) {
  return LoadSchema(blob);
}

Status TupleCompactor::LoadSchema(const Buffer& blob) {
  if (blob.empty()) return Status::OK();
  size_t consumed = 0;
  TC_ASSIGN_OR_RETURN(Schema s,
                      DeserializeSchema(blob.data(), blob.size(), &consumed));
  std::lock_guard<std::mutex> lock(mu_);
  schema_ = std::move(s);
  return Status::OK();
}

}  // namespace tc
