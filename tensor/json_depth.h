// Nesting bound and field naming shared by the recursive-descent JSON
// readers (eval/scenario.cpp, core/variability/lifetime.cpp). It lives
// in tensor/ because core/variability sits below eval. Internal header:
// not part of the public tensor API.
#pragma once

#include <string>

namespace qavat {
namespace json_depth {

// Deepest object nesting a reader accepts (the root object is level 1;
// every to_json() here emits at most 3). Each level is one stack frame
// of the recursive descent, so the cap turns a hostile deeply nested
// document into a clean error instead of a stack overflow.
constexpr int kMaxDepth = 32;

// The chain of keys from the root to the value being parsed, walked only
// to name the field in a depth-limit error.
struct Path {
  const Path* parent;
  const std::string* key;
};

// "<dotted field path>: objects nested deeper than 32 levels".
inline std::string too_deep(const Path* path) {
  std::string s;
  for (; path != nullptr; path = path->parent) {
    s = s.empty() ? *path->key : *path->key + "." + s;
  }
  return (s.empty() ? "(root)" : s) + ": objects nested deeper than " +
         std::to_string(kMaxDepth) + " levels";
}

}  // namespace json_depth
}  // namespace qavat
