// Minimal command-line flag parser for the bench/example binaries.
// Accepts `--name=value` and `--name value` (a following `--flag` is never
// taken as a value). A bare `--name` -- last, or before another `--flag` --
// sets "true" if the flag's default is a word boolean (true/false, yes/no,
// on/off); any other flag needs a value. `--help` prints registered flags. Malformed values
// fail loudly: the typed accessors abort rather than guess. No global
// state: each binary builds one `FlagSet`.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace omcast::util {

class FlagSet {
 public:
  // Registers a flag with a default value and help text. Returns *this for
  // chaining.
  FlagSet& Define(const std::string& name, const std::string& default_value,
                  const std::string& help);

  // Parses argv. Returns false (after printing usage) on unknown flags,
  // missing values (a bare `--x` whose default is not a word boolean), or
  // --help.
  bool Parse(int argc, char** argv);

  // Typed accessors; abort on unregistered names (programming error) and
  // on values that are not wholly of the type: empty, non-numeric or
  // trailing garbage ("5x"), or a bool outside 1/0, true/false, yes/no,
  // on/off.
  std::string GetString(const std::string& name) const;
  int GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  // Parses a comma-separated list of integers, e.g. "2000,5000,8000";
  // empty tokens are skipped, but the list must hold at least one integer.
  std::vector<int> GetIntList(const std::string& name) const;

  void PrintUsage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
};

}  // namespace omcast::util
