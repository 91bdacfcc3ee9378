// A minimal JSON text writer for the benchmark's machine-readable output.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(std::string_view name) {
    separate();
    quote(name);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  Json& value(std::int64_t v) { return raw(std::to_string(v)); }
  Json& value(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& value(int v) { return raw(std::to_string(v)); }
  Json& value(bool v) { return raw(v ? "true" : "false"); }
  Json& value(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(buf);
  }
  Json& value(std::string_view v) {
    separate();
    quote(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string_view(v)); }

  template <typename T>
  Json& field(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  Json& raw(std::string_view text) {
    separate();
    out_ += text;
    return *this;
  }
  /// Comma before every element but the first of its container; nothing
  /// between a key and its value.
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) {
        out_ += ',';
      }
      first_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
      }
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
