#include "fuzz_targets.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>

#include "adm/parser.h"
#include "adm/printer.h"
#include "common/status.h"
#include "format/vector_format.h"
#include "query/field_access.h"
#include "query/scan_predicate.h"
#include "query/vec/vec_operator.h"
#include "schema/schema_io.h"
#include "storage/compressor.h"
#include "workload/workload.h"

namespace tc {

int FuzzParseAdm(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  auto parsed = ParseAdm(text);
  if (!parsed.ok()) return 0;  // rejecting is fine; crashing is not
  // Anything the parser accepts must survive print -> reparse: the printer is
  // the flush path's inverse, so a value that prints unparsably would corrupt
  // a dataset round trip.
  std::string printed = PrintAdm(parsed.value());
  auto reparsed = ParseAdm(printed);
  TC_CHECK(reparsed.ok());
  // And printing must have reached a fixed point (canonical text).
  TC_CHECK(PrintAdm(reparsed.value()) == printed);
  return 0;
}

int FuzzDeserializeSchema(const uint8_t* data, size_t size) {
  size_t consumed = 0;
  auto parsed = DeserializeSchema(data, size, &consumed);
  if (!parsed.ok()) return 0;
  TC_CHECK(consumed <= size);
  // Accepted schemas re-serialize canonically: serialize -> deserialize ->
  // serialize must be a fixed point, or persisted component metadata would
  // drift across rewrites.
  Buffer first;
  SerializeSchema(parsed.value(), &first);
  size_t consumed2 = 0;
  auto again = DeserializeSchema(first.data(), first.size(), &consumed2);
  TC_CHECK(again.ok());
  TC_CHECK(consumed2 == first.size());
  Buffer second;
  SerializeSchema(again.value(), &second);
  TC_CHECK(first == second);
  return 0;
}

namespace {

// Paths ending in a nested value send the extractor to its fallback.
const char* const kNestedPaths[] = {"user", "calibration", "s"};

std::vector<FieldPath> ParsePaths(bool with_nested) {
  std::vector<FieldPath> paths;
  for (const char* p : kPathWalkLeafPaths) paths.push_back(FieldPath::Parse(p));
  if (with_nested) {
    for (const char* p : kNestedPaths) paths.push_back(FieldPath::Parse(p));
  }
  return paths;
}

// Whether a path's value ends in a nested value: the value itself for an
// exact path, any listed match for a wildcard path.
bool EndsNested(const FieldPath& path, const AdmValue& v) {
  if (!path.HasWildcard()) return IsNested(v.tag());
  for (size_t i = 0; i < v.size(); ++i) {
    if (IsNested(v.item(i).tag())) return true;
  }
  return false;
}

}  // namespace

const std::vector<std::shared_ptr<const ScanPredicate>>& PathWalkPredicates() {
  static const std::vector<std::shared_ptr<const ScanPredicate>> preds = [] {
    std::vector<std::shared_ptr<const ScanPredicate>> preds;
    for (const char* p : kPathWalkLeafPaths) {
      preds.push_back(ScanPredicate::And(
          {ScanPredicate::Term(p, CompareOp::kGe, AdmValue::BigInt(0))}));
      preds.push_back(ScanPredicate::And(
          {ScanPredicate::Term(p, CompareOp::kLt, AdmValue::Double(25.0))}));
      preds.push_back(ScanPredicate::And(
          {ScanPredicate::Term(p, CompareOp::kNe, AdmValue::String("x"), true)}));
      preds.push_back(ScanPredicate::And({ScanPredicate::In(
          p, {AdmValue::BigInt(1), AdmValue::BigInt(3), AdmValue::String("a")})}));
    }
    for (const char* p : kNestedPaths) {
      preds.push_back(ScanPredicate::And(
          {ScanPredicate::Term(p, CompareOp::kNe, AdmValue::BigInt(0))}));
    }
    preds.push_back(ScanPredicate::And(
        {ScanPredicate::Term("id", CompareOp::kGe, AdmValue::BigInt(0)),
         ScanPredicate::Term("readings[*].temp", CompareOp::kLt,
                             AdmValue::Double(25.0)),
         ScanPredicate::Term("entities.hashtags[*].text", CompareOp::kNe,
                             AdmValue::String("x")),
         ScanPredicate::Term("a", CompareOp::kLe, AdmValue::BigInt(1))}));
    return preds;
  }();
  return preds;
}

const std::vector<PathWalkFuzzContext>& PathWalkFuzzContexts() {
  static const std::vector<PathWalkFuzzContext> contexts = [] {
    std::vector<PathWalkFuzzContext> out;
    for (const char* dataset : {"twitter", "wos", "sensors"}) {
      for (bool closed : {false, true}) {
        auto gen = MakeGenerator(dataset, /*seed=*/11);
        PathWalkFuzzContext ctx;
        ctx.name = std::string(dataset) + (closed ? "_closed" : "_open");
        ctx.type = closed ? gen->ClosedType() : gen->OpenType();
        // Inferred the way a flush infers: from the encoded records.
        for (int i = 0; i < 16; ++i) {
          ctx.records.push_back(gen->NextRecord());
          Buffer vb;
          TC_CHECK(EncodeVectorRecord(ctx.records.back(), ctx.type, &vb).ok());
          TC_CHECK(InferVectorRecord(VectorRecordView(vb.data(), vb.size()), ctx.type,
                                     &ctx.schema)
                       .ok());
        }
        out.push_back(std::move(ctx));
      }
    }
    return out;
  }();
  return contexts;
}

int FuzzPageCodec(const uint8_t* data, size_t size) {
  // Larger than any configured page, so a stream claiming a bigger page is
  // the only length the decoder refuses for room.
  constexpr size_t kMaxPage = size_t{1} << 17;
  Buffer decoded(kMaxPage);
  for (CompressionKind kind : {CompressionKind::kSnappy, CompressionKind::kHeavy}) {
    auto codec = GetCompressor(kind);
    size_t n = 0;
    if (codec->Decompress(data, size, decoded.data(), decoded.size(), &n).ok()) {
      TC_CHECK(n <= decoded.size());
      Buffer again;
      TC_CHECK(codec->Compress(decoded.data(), n, &again).ok());
      Buffer back(n);
      size_t m = 0;
      TC_CHECK(codec->Decompress(again.data(), again.size(), back.data(), n, &m).ok());
      TC_CHECK(m == n && std::equal(back.begin(), back.end(), decoded.begin()));
    }
    // The input as a raw page.
    Buffer compressed;
    TC_CHECK(codec->Compress(data, size, &compressed).ok());
    TC_CHECK(compressed.size() <= 10 + size + size / 65 + 3 * ((size + 61439) / 61440));
    Buffer back(size);
    size_t m = 0;
    TC_CHECK(codec->Decompress(compressed.data(), compressed.size(), back.data(), size, &m)
                 .ok());
    TC_CHECK(m == size && (size == 0 || std::memcmp(back.data(), data, size) == 0));
  }
  return 0;
}

int FuzzVectorPathWalk(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  static const std::vector<FieldPath> all_paths = ParsePaths(/*with_nested=*/true);
  static const std::vector<FieldPath> leaf_paths = ParsePaths(/*with_nested=*/false);
  const auto& preds = PathWalkPredicates();
  const auto& contexts = PathWalkFuzzContexts();
  const PathWalkFuzzContext& ctx = contexts[data[0] % contexts.size()];
  const VectorRecordView view(data + 1, size - 1);

  // Every walk runs first: none may crash, whatever the bytes.
  std::vector<AdmValue> got, got_unconsolidated;
  Status got_st = GetValuesVector(view, ctx.type, &ctx.schema, all_paths, &got);
  Status unconsolidated_st = GetValuesVectorUnconsolidated(view, ctx.type, &ctx.schema,
                                                           all_paths,
                                                           &got_unconsolidated);
  struct Extracted {
    Result<bool> fast = false;
    std::vector<ColumnVector> cols;
  };
  Extracted extracted[2];
  const std::vector<FieldPath>* extractor_paths[2] = {&all_paths, &leaf_paths};
  for (int e = 0; e < 2; ++e) {
    VecPathExtractor extractor(*extractor_paths[e], &ctx.schema);
    extracted[e].fast = extractor.Extract(view, ctx.type);
    extracted[e].cols.resize(extractor_paths[e]->size());
    if (extracted[e].fast.ok() && extracted[e].fast.value()) {
      extractor.AppendRow(extracted[e].cols.data());
    }
  }
  ScanPredicateMatcher matcher;  // reused across predicates, as a scan does
  std::vector<Result<bool>> matched;
  for (const auto& pred : preds) {
    matched.push_back(matcher.MatchVector(view, ctx.type, &ctx.schema, *pred));
  }

  // The anti-schema walk undoes inference on every record the decoder
  // accepts, and changes nothing on one it rejects.
  AdmValue record;
  const bool decodes = DecodeVectorRecord(view, ctx.type, &ctx.schema, &record).ok();
  Schema schema = ctx.schema.Clone();
  if (!decodes) {
    TC_CHECK(!RemoveVectorRecord(view, ctx.type, &schema).ok());
    TC_CHECK(schema.Equals(ctx.schema));
    return 0;
  }
  TC_CHECK(InferVectorRecord(view, ctx.type, &schema).ok());
  TC_CHECK(RemoveVectorRecord(view, ctx.type, &schema).ok());
  TC_CHECK(schema.ToString() == ctx.schema.ToString());

  // Whenever the decoder accepts the record, every path walk agrees with it.
  TC_CHECK(got_st.ok());
  TC_CHECK(unconsolidated_st.ok());
  std::vector<AdmValue> oracle;
  for (const FieldPath& p : all_paths) {
    oracle.push_back(NavigateAdmValue(record, p.steps));
  }
  for (size_t k = 0; k < all_paths.size(); ++k) {
    const std::string want = PrintAdm(oracle[k]);
    TC_CHECK(PrintAdm(got[k]) == want);
    TC_CHECK(PrintAdm(got_unconsolidated[k]) == want);
  }
  for (int e = 0; e < 2; ++e) {
    TC_CHECK(extracted[e].fast.ok());
    bool nested = false;
    for (size_t k = 0; k < extractor_paths[e]->size(); ++k) {
      nested = nested || EndsNested((*extractor_paths[e])[k], oracle[k]);
    }
    // The extractor falls back exactly when some path ends in a nested value.
    TC_CHECK(extracted[e].fast.value() == !nested);
    if (nested) continue;
    for (size_t k = 0; k < extractor_paths[e]->size(); ++k) {
      TC_CHECK(PrintAdm(extracted[e].cols[k].ValueAt(0)) == PrintAdm(oracle[k]));
    }
  }
  for (size_t i = 0; i < preds.size(); ++i) {
    std::vector<AdmValue> cols;
    for (const PredicateTerm& t : preds[i]->terms) {
      cols.push_back(NavigateAdmValue(record, t.path.steps));
    }
    TC_CHECK(matched[i].ok());
    TC_CHECK(matched[i].value() == EvalPredicateRow(cols, *preds[i]));
  }
  return 0;
}

}  // namespace tc
