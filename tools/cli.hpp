#pragma once

// The one command-line flag parser of ndc-sweep, ndc-trace, ndc-lint and
// bench_substrate. A tool declares each flag once, with the Parser's add
// methods; Parse() reads argv against that table and Usage() is generated
// from it.
//
// A switch is `--name` (or its one-letter alias, `-q`), every other flag
// `--name=value`. `--help` and `-h` print the usage and exit 0. A bad
// argument prints `<tool>: <what is wrong>` and the usage on stderr and
// exits 2. Integers are decimal digits only: a sign, a blank, trailing text
// or a value outside the flag's range is rejected. A choice matches its
// names ignoring case and all but letters and digits ("wait5" is
// "Wait(5%)").

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ndc::cli {

class Parser {
 public:
  explicit Parser(std::string tool) : tool_(std::move(tool)) {}

  /// `--name` (or `-alias`) sets *out to true.
  Parser& Switch(const char* name, bool* out, const char* help, char alias = 0);
  /// `--name=VALUE` stores VALUE; the last one given wins.
  Parser& String(const char* name, std::string* out, const char* meta, const char* help);
  /// `--name=VALUE`, repeatable: each VALUE is appended to *out.
  Parser& Strings(const char* name, std::vector<std::string>* out, const char* meta,
                  const char* help);

  /// `--name=N` with lo <= N <= hi.
  template <class T>
  Parser& Unsigned(const char* name, T* out, const char* help, std::uint64_t lo = 0,
                   std::uint64_t hi = std::numeric_limits<T>::max()) {
    return AddUnsigned(name, help, lo, hi, [out](std::uint64_t v) { *out = static_cast<T>(v); });
  }

  /// `--name=V` where V is one of `names`; stores the name as listed.
  Parser& Choice(const char* name, std::string* out, std::vector<std::string> names,
                 const char* help);

  /// `--name=V` where V is any name in `table` (an enum's name table, in
  /// which a value may appear under several names); stores that value.
  template <class T, class E, std::size_t N>
  Parser& Choice(const char* name, T* out, const std::pair<E, const char*> (&table)[N],
                 const char* help) {
    std::vector<std::string> names;
    std::vector<E> values;
    for (const auto& [value, spelling] : table) {
      values.push_back(value);
      names.emplace_back(spelling);
    }
    return AddChoice(name, std::move(names), help,
                     [out, values](std::size_t i) { *out = values[i]; });
  }

  /// Applies `args` (argv without the program name) to the flags' targets
  /// up to the first --help, which sets *help, or the first bad argument.
  /// Returns what is wrong with that argument, or "".
  std::string Read(const std::vector<std::string>& args, bool* help) const;

  /// Reads argv[1..argc): on --help prints Usage() and exits 0, on a bad
  /// argument calls Fail().
  void Parse(int argc, char** argv) const;

  /// Prints `<tool>: <message>` and the usage on stderr, then exits 2; also
  /// for the checks a tool makes after parsing.
  [[noreturn]] void Fail(const std::string& message) const;

  std::string Usage() const;

 private:
  struct Flag {
    std::string name;  ///< without the leading "--"
    char alias = 0;    ///< one-letter short form, 0 = none
    std::string meta;  ///< value placeholder; empty for a switch
    std::string help;
    /// Applies one value; returns what is wrong with it, or "".
    std::function<std::string(std::string_view)> apply;
  };

  Parser& Add(Flag flag);
  Parser& AddUnsigned(const char* name, const char* help, std::uint64_t lo, std::uint64_t hi,
                      std::function<void(std::uint64_t)> store);
  Parser& AddChoice(const char* name, std::vector<std::string> names, const char* help,
                    std::function<void(std::size_t)> store);

  std::string tool_;
  std::vector<Flag> flags_;
};

}  // namespace ndc::cli
