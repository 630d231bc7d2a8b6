#include "tensor/json.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qavat {
namespace json {

namespace {

// The chain of keys and array indices from the root to the value being
// parsed, rendered only to name that value in an error.
struct Path {
  const Path* parent;
  const std::string* key;  // nullptr: array element `index`
  std::size_t index;
};

// Keys join with '.'; an array element restarts the dotted path after
// "[i]: ", the shape the manifest gives the errors of its entries.
std::string render(const Path* path) {
  if (path == nullptr) return "";
  const std::string up = render(path->parent);
  if (path->key == nullptr) return up + "[" + std::to_string(path->index) + "]";
  if (up.empty()) return *path->key;
  return up + (path->parent->key == nullptr ? ": " : ".") + *path->key;
}

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : begin_(text.data()), p_(begin_), end_(begin_ + text.size()),
        err_(error) {}

  bool document(Value* out) {
    ws();
    if (p_ == end_ || *p_ != '{') return malformed();
    if (!value(out, nullptr, 1)) return false;
    ws();
    return p_ == end_ || fail("malformed JSON (trailing characters)");
  }

 private:
  bool fail(const std::string& what) {
    if (err_->empty()) *err_ = what;
    return false;
  }
  bool malformed() {
    return fail("malformed JSON at byte " + std::to_string(p_ - begin_));
  }
  void ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }
  // Consume `word` (after whitespace) if it comes next.
  bool eat(const char* word) {
    ws();
    const std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end_ - p_) < n ||
        std::memcmp(p_, word, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }

  bool string(std::string* out) {
    if (!eat("\"")) return malformed();
    const char* start = p_;
    // to_json emits neither escapes nor control characters.
    while (p_ != end_ && *p_ != '"' && *p_ != '\\' &&
           static_cast<unsigned char>(*p_) >= 0x20) {
      ++p_;
    }
    if (p_ == end_ || *p_ != '"') return malformed();
    out->assign(start, p_);
    ++p_;
    return true;
  }

  bool value(Value* out, const Path* path, int depth) {
    ws();
    if (p_ == end_) return malformed();
    const char open = *p_;
    if (open == '{' || open == '[') {
      if (depth > kMaxDepth) {
        return fail(render(path) + (open == '{' ? ": objects" : ": arrays") +
                    " nested deeper than " + std::to_string(kMaxDepth) +
                    " levels");
      }
      ++p_;
      out->kind = open == '{' ? Value::kObject : Value::kArray;
      const char* close = open == '{' ? "}" : "]";
      if (eat(close)) return true;
      do {
        if (open == '[') {
          const Path child{path, nullptr, out->items.size()};
          out->items.emplace_back();
          if (!value(&out->items.back(), &child, depth + 1)) return false;
          continue;
        }
        std::string key;
        if (!string(&key)) return false;
        const Path child{path, &key, 0};
        auto slot = out->members.emplace(key, Value());
        if (!slot.second) return fail(render(&child) + ": duplicate key");
        if (!eat(":")) return malformed();
        if (!value(&slot.first->second, &child, depth + 1)) return false;
      } while (eat(","));
      return eat(close) || malformed();
    }
    if (open == '"') {
      out->kind = Value::kString;
      return string(&out->text);
    }
    const bool is_true = eat("true");
    if (is_true || eat("false")) {
      out->kind = Value::kBool;
      out->b = is_true;
      return true;
    }
    // A number token; its grammar is checked by the typed reader, which
    // can then name the field.
    const char* start = p_;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '-' ||
                          *p_ == '+' || *p_ == '.' || *p_ == 'e' ||
                          *p_ == 'E')) {
      ++p_;
    }
    if (p_ == start) return malformed();
    out->kind = Value::kNumber;
    out->text.assign(start, p_);
    return true;
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  std::string* err_;
};

// RFC 8259 §6: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — the
// fraction and exponent only when !integer.
bool is_number(const std::string& s, bool integer) {
  const char* p = s.c_str();
  auto digits = [&p]() {
    const char* start = p;
    while (*p >= '0' && *p <= '9') ++p;
    return p != start;
  };
  if (*p == '-') ++p;
  if (*p == '0') {
    ++p;
  } else if (!digits()) {
    return false;
  }
  if (!integer && *p == '.') {
    ++p;
    if (!digits()) return false;
  }
  if (!integer && (*p == 'e' || *p == 'E')) {
    ++p;
    if (*p == '+' || *p == '-') ++p;
    if (!digits()) return false;
  }
  return *p == '\0';
}

}  // namespace

bool parse(const std::string& text, Value* out, std::string* error) {
  error->clear();
  Value root;
  if (!Parser(text, error).document(&root)) return false;
  *out = std::move(root);
  return true;
}

const Value* Fields::find(const char* name, Value::Kind kind,
                          const char* expected) {
  if (obj_ == nullptr || !ok()) return nullptr;
  known_.push_back(name);
  auto it = obj_->members.find(name);
  if (it == obj_->members.end()) return nullptr;
  if (it->second.kind != kind) {
    fail(name, std::string("expected ") + expected);
    return nullptr;
  }
  return &it->second;
}

const Value* Fields::get(const char* name, Value::Kind kind) {
  static const char* const kExpected[] = {"an object", "an array", "a string",
                                          "a number", "true or false"};
  return find(name, kind, kExpected[kind]);
}

void Fields::fail(const std::string& field, const std::string& what) {
  if (err_->empty()) *err_ = prefix_ + field + ": " + what;
}

Fields& Fields::num(const char* name, double* dst) {
  const Value* v = get(name, Value::kNumber);
  if (v == nullptr) return *this;
  const double d = std::strtod(v->text.c_str(), nullptr);
  if (!is_number(v->text, false) || !std::isfinite(d)) {
    fail(name, "expected a number");
  } else {
    *dst = d;
  }
  return *this;
}

Fields& Fields::index(const char* name, long long* dst) {
  const Value* v = find(name, Value::kNumber, "an integer");
  if (v == nullptr) return *this;
  errno = 0;
  const long long i = std::strtoll(v->text.c_str(), nullptr, 10);
  if (!is_number(v->text, true) || errno == ERANGE) {
    fail(name, "expected an integer");
  } else {
    *dst = i;
  }
  return *this;
}

Fields& Fields::u64(const char* name, std::uint64_t* dst) {
  const Value* v = find(name, Value::kNumber, "an unsigned integer");
  if (v == nullptr) return *this;
  errno = 0;
  const unsigned long long u = std::strtoull(v->text.c_str(), nullptr, 10);
  if (v->text[0] == '-' || !is_number(v->text, true) || errno == ERANGE) {
    fail(name, "expected an unsigned integer");
  } else {
    *dst = u;
  }
  return *this;
}

Fields& Fields::boolean(const char* name, bool* dst) {
  if (const Value* v = get(name, Value::kBool)) *dst = v->b;
  return *this;
}

int Fields::token(const char* name, std::initializer_list<const char*> tokens) {
  const Value* v = get(name, Value::kString);
  if (v == nullptr) return -1;
  int i = 0;
  for (const char* t : tokens) {
    if (v->text == t) return i;
    ++i;
  }
  fail(name, "unknown token '" + v->text + "'");
  return -1;
}

Fields& Fields::schema(const char* name, long long version) {
  if (obj_ != nullptr && ok() && obj_->members.count(name) == 0) {
    fail(name, "missing");
    return *this;
  }
  long long got = version;
  index(name, &got);
  if (ok() && got != version) {
    fail(name, "version mismatch: expected " + std::to_string(version) +
                   ", got " + std::to_string(got));
  }
  return *this;
}

Fields Fields::object(const char* name) {
  return Fields(get(name, Value::kObject), prefix_ + name + ".", err_);
}

bool Fields::end(const char* noun) {
  if (obj_ == nullptr || !ok()) return ok();
  for (const auto& m : obj_->members) {
    bool asked = false;
    for (const char* k : known_) asked = asked || m.first == k;
    if (!asked) {
      *err_ = "unknown " + std::string(noun) + " '" + prefix_ + m.first + "'";
      break;
    }
  }
  return ok();
}

void kv(std::string& out, const char* k, const std::string& v, bool quote,
        bool last) {
  out += '"';
  out += k;
  out += "\":";
  if (quote) out += '"';
  out += v;
  if (quote) out += '"';
  if (!last) out += ',';
}

std::string fmt_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string lld(long long v) { return std::to_string(v); }

}  // namespace json
}  // namespace qavat
