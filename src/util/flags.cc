#include "util/flags.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace omcast::util {

namespace {

// Word-form boolean literals only: "0"/"1" defaults are as likely counts.
bool IsBoolWord(const std::string& s) {
  return s == "true" || s == "false" || s == "yes" || s == "no" ||
         s == "on" || s == "off";
}

}  // namespace

FlagSet& FlagSet::Define(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  Check(!flags_.contains(name), "duplicate flag definition");
  flags_[name] = Flag{default_value, default_value, help};
  return *this;
}

bool FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      PrintUsage(argv[0]);
      return false;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      PrintUsage(argv[0]);
      return false;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else if (IsBoolWord(it->second.default_value)) {
      value = "true";  // bare boolean switch
    } else {
      // A following --flag is the next flag, not this one's value.
      std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
      PrintUsage(argv[0]);
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string FlagSet::GetString(const std::string& name) const {
  const auto it = flags_.find(name);
  Check(it != flags_.end(), "access to unregistered flag");
  return it->second.value;
}

namespace {

[[noreturn]] void FailValue(const std::string& name, const std::string& value,
                            const char* want) {
  Fail("flag --" + name + "='" + value + "' is not " + want);
}

// The whole of `s` as a base-10 int; false on empty, non-numeric,
// trailing-garbage or out-of-range input.
bool ParseInt(const std::string& s, int* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX)
    return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int FlagSet::GetInt(const std::string& name) const {
  const std::string v = GetString(name);
  int out = 0;
  if (!ParseInt(v, &out)) FailValue(name, v, "an integer");
  return out;
}

double FlagSet::GetDouble(const std::string& name) const {
  const std::string v = GetString(name);
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0') FailValue(name, v, "a number");
  return out;
}

bool FlagSet::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  FailValue(name, v, "a boolean (1/0, true/false, yes/no, on/off)");
}

std::vector<int> FlagSet::GetIntList(const std::string& name) const {
  std::vector<int> out;
  const std::string v = GetString(name);
  std::size_t pos = 0;
  while (pos < v.size()) {
    std::size_t comma = v.find(',', pos);
    if (comma == std::string::npos) comma = v.size();
    const std::string tok = v.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    int n = 0;
    if (!ParseInt(tok, &n)) FailValue(name, v, "a list of integers");
    out.push_back(n);
  }
  if (out.empty()) FailValue(name, v, "a list of integers");
  return out;
}

void FlagSet::PrintUsage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.default_value.c_str());
  }
}

}  // namespace omcast::util
