#include "netemu/util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace netemu {

Cli::Cli(int argc, const char* const* argv,
         std::initializer_list<const char*> flags)
    : declared_(flags.begin(), flags.end()) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    if (declared_.count(name) == 0) {
      const std::string base = program_.substr(program_.rfind('/') + 1);
      std::cerr << base << ": --" << name << " was removed or never existed\n";
      std::exit(1);
    }
    if (eq != std::string::npos) {
      flags_[std::move(name)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[std::move(name)] = argv[++i];
    } else {
      flags_[std::move(name)] = "true";
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  if (declared_.count(name) == 0) {
    throw std::logic_error("Cli: --" + name + " read but not declared");
  }
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name, const std::string& def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : *v;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : std::strtoll(v->c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
}

}  // namespace netemu
