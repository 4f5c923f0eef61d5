#pragma once
// Tiny command-line flag parser for the examples and bench binaries.
// Supports --name=value and --name value, plus boolean --flag.
//
// Every program declares the flags it reads.  A flag on the command line
// that is not declared prints "<program>: --<flag> was removed or never
// existed" to stderr and exits 1, so a deleted or misspelled flag fails
// loudly instead of running on a silently different config.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace netemu {

class Cli {
 public:
  /// `flags` names every accepted flag, without the leading "--".
  Cli(int argc, const char* const* argv,
      std::initializer_list<const char*> flags);

  // Reading a flag that was not declared is a programming error and
  // throws std::logic_error.
  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;

  /// Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::set<std::string> declared_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace netemu
