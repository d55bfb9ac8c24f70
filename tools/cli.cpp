#include "cli.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace ndc::cli {
namespace {

/// The spelling a choice compares: lower-case letters and digits only.
std::string MatchKey(std::string_view s) {
  std::string key;
  for (char c : s) {
    auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) != 0) key += static_cast<char>(std::tolower(u));
  }
  return key;
}

std::string Join(const std::vector<std::string>& names, const char* sep) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : sep) + n;
  return out;
}

}  // namespace

Parser& Parser::Add(Flag flag) {
  flags_.push_back(std::move(flag));
  return *this;
}

Parser& Parser::Switch(const char* name, bool* out, const char* help, char alias) {
  return Add({name, alias, "", help, [out](std::string_view) { *out = true; return ""; }});
}

Parser& Parser::String(const char* name, std::string* out, const char* meta,
                       const char* help) {
  return Add({name, 0, meta, help, [out](std::string_view v) { *out = v; return ""; }});
}

Parser& Parser::Strings(const char* name, std::vector<std::string>* out, const char* meta,
                        const char* help) {
  return Add({name, 0, meta, help, [out](std::string_view v) {
                out->emplace_back(v);
                return "";
              }});
}

Parser& Parser::AddUnsigned(const char* name, const char* help, std::uint64_t lo,
                            std::uint64_t hi, std::function<void(std::uint64_t)> store) {
  std::string expects =
      lo > 1 || hi < std::numeric_limits<std::int32_t>::max()
          ? "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]"
      : lo == 0 ? "a non-negative integer"
                : "a positive integer";
  std::string error = std::string("--") + name + " expects " + expects + ", got '";
  return Add({name, 0, "N", help, [=](std::string_view v) {
                std::uint64_t n = 0;
                auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
                if (v.empty() || ec != std::errc() || end != v.data() + v.size() || n < lo ||
                    n > hi) {
                  return error + std::string(v) + "'";
                }
                store(n);
                return std::string();
              }});
}

Parser& Parser::Choice(const char* name, std::string* out, std::vector<std::string> names,
                       const char* help) {
  return AddChoice(name, names, help, [out, names](std::size_t i) { *out = names[i]; });
}

Parser& Parser::AddChoice(const char* name, std::vector<std::string> names, const char* help,
                          std::function<void(std::size_t)> store) {
  std::string listed = Join(names, "|");
  Flag f{name, 0, listed, help, nullptr};
  if (listed.size() > 24) {  // too long to read inline: list the names after the help
    f.meta = "NAME";
    f.help += "; NAME is one of: " + Join(names, " ");
  }
  std::string expects = std::string(" (--") + name + " expects " + listed + ")";
  f.apply = [=](std::string_view v) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (MatchKey(v) == MatchKey(names[i])) {
        store(i);
        return std::string();
      }
    }
    return std::string("unknown ") + name + " '" + std::string(v) + "'" + expects;
  };
  return Add(std::move(f));
}

std::string Parser::Read(const std::vector<std::string>& args, bool* help) const {
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return "";
    }
    const Flag* flag = nullptr;
    std::size_t eq = arg.find('=');
    bool has_value = eq != std::string::npos;
    for (const Flag& f : flags_) {
      bool alias = f.alias != 0 && arg == std::string{'-', f.alias};
      if (alias || arg.substr(0, eq) == "--" + f.name) flag = &f;
    }
    if (flag == nullptr) return "unknown argument '" + arg + "'";
    if (flag->meta.empty() && has_value) return "--" + flag->name + " takes no value";
    if (!flag->meta.empty() && !has_value) {
      return "--" + flag->name + " expects a value (--" + flag->name + "=" + flag->meta + ")";
    }
    std::string error = flag->apply(has_value ? std::string_view(arg).substr(eq + 1) : "");
    if (!error.empty()) return error;
  }
  return "";
}

void Parser::Parse(int argc, char** argv) const {
  bool help = false;
  std::string error = Read(std::vector<std::string>(argv + 1, argv + argc), &help);
  if (help) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
  if (!error.empty()) Fail(error);
}

void Parser::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), message.c_str(), Usage().c_str());
  std::exit(2);
}

std::string Parser::Usage() const {
  std::vector<std::pair<std::string, std::string>> rows;
  for (const Flag& f : flags_) {
    std::string alias = f.alias != 0 ? std::string{'-', f.alias, ',', ' '} : "";
    rows.emplace_back(alias + "--" + f.name + (f.meta.empty() ? "" : "=" + f.meta), f.help);
  }
  rows.emplace_back("-h, --help", "print this help and exit");
  std::size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row.first.size());
  std::string out = "usage: " + tool_ + " [flags]\n";
  for (const auto& [left, help] : rows) {
    out += "  " + left + std::string(width + 2 - left.size(), ' ') + help + "\n";
  }
  return out;
}

}  // namespace ndc::cli
