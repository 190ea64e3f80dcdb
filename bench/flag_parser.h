// The strict command-line walker every bench, fuzz and report main parses
// through. It needs only the standard library, so lz_report (which links
// lz_obs alone) shares it with the bench binaries.
//
// take() matches `--flag V` and `--flag=V`; take_number() also requires V
// to be a whole decimal in [lo, hi] (no sign, trailing characters or
// overflow). die() names the offender, prints the usage text to stderr and
// exits 2; --help / -h print it to stdout and exit 0.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace lz::bench {

class FlagParser {
 public:
  FlagParser(int argc, char** argv, std::function<void(std::FILE*)> usage)
      : argc_(argc), argv_(argv), usage_(std::move(usage)) {}

  // Steps to the next argument; false once argv is used up.
  bool next() {
    if (++i_ >= argc_) return false;
    arg_ = argv_[i_];
    if (arg_ == "--help" || arg_ == "-h") {
      usage_(stdout);
      std::exit(0);
    }
    return true;
  }
  const std::string& arg() const { return arg_; }

  bool take(std::string_view flag, std::string* dst) {
    if (arg_ == flag) {
      if (i_ + 1 >= argc_) die("missing value for", arg_);
      *dst = argv_[++i_];
      return true;
    }
    if (arg_.size() <= flag.size() + 1 || !arg_.starts_with(flag) ||
        arg_[flag.size()] != '=') {
      return false;
    }
    *dst = arg_.substr(flag.size() + 1);
    return true;
  }

  template <class T>
  bool take_number(std::string_view flag, T* dst, std::uint64_t lo = 0,
                   std::uint64_t hi = std::numeric_limits<T>::max()) {
    std::string value;
    if (!take(flag, &value)) return false;
    std::uint64_t n = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, n);
    if (ec != std::errc() || ptr != end || n < lo || n > hi) {
      die("bad value for " + std::string(flag) + ":", value);
    }
    *dst = static_cast<T>(n);
    return true;
  }

  [[noreturn]] void die(const std::string& what,
                        const std::string& arg) const {
    std::fprintf(stderr, "%s: %s '%s'\n", argv_[0], what.c_str(), arg.c_str());
    usage_(stderr);
    std::exit(2);
  }

 private:
  int argc_;
  char** argv_;
  std::function<void(std::FILE*)> usage_;
  int i_ = 0;
  std::string arg_;
};

}  // namespace lz::bench
