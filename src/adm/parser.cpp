#include "adm/parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

namespace tc {

int64_t DaysFromCivil(int y, int m, int d) {
  // Howard Hinnant's days_from_civil algorithm.
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, int* m, int* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = static_cast<int>(yy + (*m <= 2));
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<AdmValue> Parse() {
    AdmValue v;
    TC_RETURN_IF_ERROR(ParseValue(&v));
    SkipWs();
    if (pos_ != text_.size()) return Err("trailing characters after value");
    return v;
  }

 private:
  Status Err(const std::string& what) {
    return Status::InvalidArgument("ADM parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    if (Peek(c)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    SkipWs();
    if (text_.compare(pos_, w.size(), w) == 0) {
      size_t end = pos_ + w.size();
      if (end < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[end])) ||
                                 text_[end] == '_')) {
        return false;  // identifier continues; not this keyword
      }
      pos_ = end;
      return true;
    }
    return false;
  }

  // Nesting cap: deeply nested input ("[[[[...") would otherwise recurse once
  // per level and overflow the stack — a parser must fail cleanly on any
  // byte sequence.
  Status ParseValue(AdmValue* out) {
    if (++depth_ > kMaxNestingDepth) {
      --depth_;
      return Err("value nesting exceeds depth limit");
    }
    Status st = ParseValueInner(out);
    --depth_;
    return st;
  }

  Status ParseValueInner(AdmValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        // `{{` opens a multiset, `{` an object.
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '{') {
          return ParseMultiset(out);
        }
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        return ParseStringValue(out);
      default:
        break;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return ParseNumber(out);
    if (ConsumeWord("true")) {
      *out = AdmValue::Boolean(true);
      return Status::OK();
    }
    if (ConsumeWord("false")) {
      *out = AdmValue::Boolean(false);
      return Status::OK();
    }
    if (ConsumeWord("null")) {
      *out = AdmValue::Null();
      return Status::OK();
    }
    if (ConsumeWord("missing")) {
      *out = AdmValue::Missing();
      return Status::OK();
    }
    if (ConsumeWord("date")) return ParseDateCtor(out);
    if (ConsumeWord("datetime")) return ParseDateTimeCtor(out);
    if (ConsumeWord("time")) return ParseTimeCtor(out);
    if (ConsumeWord("duration")) return ParseDurationCtor(out);
    if (ConsumeWord("point")) return ParsePointCtor(out);
    if (ConsumeWord("uuid")) return ParseUuidCtor(out);
    return Err(std::string("unexpected character '") + c + "'");
  }

  Status ParseObject(AdmValue* out) {
    TC_CHECK(Consume('{'));
    *out = AdmValue::Object();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string name;
      TC_RETURN_IF_ERROR(ParseString(&name));
      if (!Consume(':')) return Err("expected ':' after field name");
      AdmValue v;
      TC_RETURN_IF_ERROR(ParseValue(&v));
      out->AddField(std::move(name), std::move(v));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}' in object");
    }
  }

  Status ParseMultiset(AdmValue* out) {
    TC_CHECK(Consume('{'));
    TC_CHECK(Consume('{'));
    *out = AdmValue::Multiset();
    SkipWs();
    if (Peek('}')) return CloseMultiset();
    while (true) {
      AdmValue v;
      TC_RETURN_IF_ERROR(ParseValue(&v));
      out->Append(std::move(v));
      if (Consume(',')) continue;
      if (Peek('}')) return CloseMultiset();
      return Err("expected ',' or '}}' in multiset");
    }
  }

  Status CloseMultiset() {
    if (!Consume('}') || !Consume('}')) return Err("expected '}}' closing multiset");
    return Status::OK();
  }

  Status ParseArray(AdmValue* out) {
    TC_CHECK(Consume('['));
    *out = AdmValue::Array();
    if (Consume(']')) return Status::OK();
    while (true) {
      AdmValue v;
      TC_RETURN_IF_ERROR(ParseValue(&v));
      out->Append(std::move(v));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Err("expected ',' or ']' in array");
    }
  }

  Status ParseStringValue(AdmValue* out) {
    std::string s;
    TC_RETURN_IF_ERROR(ParseString(&s));
    *out = AdmValue::String(std::move(s));
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') return Err("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Err("dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad hex digit in \\u escape");
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
    return Err("unterminated string");
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(AdmValue* out) {
    SkipWs();
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Err("malformed number");
    if (is_double) {
      double d = std::strtod(token.c_str(), nullptr);
      // Overflowing literals ("1e999") produce inf, which the printer cannot
      // round-trip; reject them like any other malformed number.
      if (!std::isfinite(d)) return Err("number out of range");
      *out = AdmValue::Double(d);
    } else {
      *out = AdmValue::BigInt(std::strtoll(token.c_str(), nullptr, 10));
    }
    return Status::OK();
  }

  Status ParseCtorString(std::string* out) {
    if (!Consume('(')) return Err("expected '(' after type constructor");
    TC_RETURN_IF_ERROR(ParseString(out));
    if (!Consume(')')) return Err("expected ')' closing type constructor");
    return Status::OK();
  }

  Status ParseDateCtor(AdmValue* out) {
    std::string s;
    TC_RETURN_IF_ERROR(ParseCtorString(&s));
    int y, m, d;
    if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
      return Err("malformed date literal '" + s + "'");
    }
    *out = AdmValue::Date(static_cast<int32_t>(DaysFromCivil(y, m, d)));
    return Status::OK();
  }

  Status ParseTimeCtor(AdmValue* out) {
    std::string s;
    TC_RETURN_IF_ERROR(ParseCtorString(&s));
    int h, mi, sec, ms = 0;
    int n = std::sscanf(s.c_str(), "%d:%d:%d.%d", &h, &mi, &sec, &ms);
    if (n < 3) return Err("malformed time literal '" + s + "'");
    *out = AdmValue::Time(((h * 60 + mi) * 60 + sec) * 1000 + ms);
    return Status::OK();
  }

  Status ParseDateTimeCtor(AdmValue* out) {
    std::string s;
    TC_RETURN_IF_ERROR(ParseCtorString(&s));
    int y, mo, d, h, mi, sec, ms = 0;
    int n = std::sscanf(s.c_str(), "%d-%d-%dT%d:%d:%d.%d", &y, &mo, &d, &h, &mi, &sec, &ms);
    if (n < 6) return Err("malformed datetime literal '" + s + "'");
    int64_t days = DaysFromCivil(y, mo, d);
    *out = AdmValue::DateTime(((days * 24 + h) * 60 + mi) * 60000 + sec * 1000 + ms);
    return Status::OK();
  }

  Status ParseDurationCtor(AdmValue* out) {
    if (!Consume('(')) return Err("expected '(' after duration");
    AdmValue ms;
    TC_RETURN_IF_ERROR(ParseNumber(&ms));
    if (!Consume(')')) return Err("expected ')' closing duration");
    if (ms.tag() != AdmTag::kBigInt) return Err("duration expects integer milliseconds");
    *out = AdmValue::Duration(ms.int_value());
    return Status::OK();
  }

  Status ParsePointCtor(AdmValue* out) {
    if (!Consume('(')) return Err("expected '(' after point");
    AdmValue x, y;
    TC_RETURN_IF_ERROR(ParseNumber(&x));
    if (!Consume(',')) return Err("expected ',' in point");
    TC_RETURN_IF_ERROR(ParseNumber(&y));
    if (!Consume(')')) return Err("expected ')' closing point");
    auto as_double = [](const AdmValue& v) {
      return v.tag() == AdmTag::kDouble ? v.double_value()
                                        : static_cast<double>(v.int_value());
    };
    *out = AdmValue::Point(as_double(x), as_double(y));
    return Status::OK();
  }

  Status ParseUuidCtor(AdmValue* out) {
    std::string s;
    TC_RETURN_IF_ERROR(ParseCtorString(&s));
    if (s.size() != 32) return Err("uuid literal must be 32 hex characters");
    std::string raw(16, '\0');
    for (int i = 0; i < 16; ++i) {
      auto hex = [&](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      int hi = hex(s[2 * i]), lo = hex(s[2 * i + 1]);
      if (hi < 0 || lo < 0) return Err("bad hex digit in uuid literal");
      raw[i] = static_cast<char>((hi << 4) | lo);
    }
    *out = AdmValue::Uuid(std::move(raw));
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<AdmValue> ParseAdm(std::string_view text) { return Parser(text).Parse(); }

}  // namespace tc
