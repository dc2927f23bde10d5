#include "util/argspec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace ssvsp {

namespace {

bool parseNumber(std::string_view text, std::int64_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

bool parseNumber(std::string_view text, double* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

ArgSpec::ArgSpec(std::string usage, std::string description)
    : usage_(std::move(usage)), description_(std::move(description)) {}

ArgSpec& ArgSpec::flag(std::string name, bool* out, std::string help) {
  flags_.push_back({std::move(name), Kind::kBool, out, std::move(help)});
  return *this;
}

ArgSpec& ArgSpec::value(std::string name, int* out, std::string help) {
  flags_.push_back({std::move(name), Kind::kInt, out, std::move(help)});
  return *this;
}

ArgSpec& ArgSpec::value(std::string name, std::int64_t* out,
                        std::string help) {
  flags_.push_back({std::move(name), Kind::kInt64, out, std::move(help)});
  return *this;
}

ArgSpec& ArgSpec::value(std::string name, double* out, std::string help) {
  flags_.push_back({std::move(name), Kind::kDouble, out, std::move(help)});
  return *this;
}

ArgSpec& ArgSpec::value(std::string name, std::string* out,
                        std::string help) {
  flags_.push_back({std::move(name), Kind::kString, out, std::move(help)});
  return *this;
}

ArgSpec& ArgSpec::repeated(std::string name, std::vector<std::string>* out,
                           std::string help) {
  flags_.push_back({std::move(name), Kind::kRepeated, out, std::move(help)});
  return *this;
}

ArgSpec& ArgSpec::positional(std::string name, std::string* out,
                             std::string help, bool required) {
  positionals_.push_back({std::move(name), out, std::move(help), required});
  return *this;
}

ArgSpec& ArgSpec::rest(std::string name, std::vector<std::string>* out,
                       std::string help) {
  restName_ = std::move(name);
  rest_ = out;
  restHelp_ = std::move(help);
  return *this;
}

ArgSpec& ArgSpec::passthroughPrefix(std::string prefix) {
  passthrough_.push_back(std::move(prefix));
  return *this;
}

ArgSpec& ArgSpec::consumer(std::function<bool(std::string_view)> fn) {
  consumers_.push_back(std::move(fn));
  return *this;
}

const ArgSpec::Flag* ArgSpec::findFlag(std::string_view name) const {
  for (const Flag& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

bool ArgSpec::applyValue(const Flag& flag, std::string_view value,
                         std::string* error) {
  switch (flag.kind) {
    case Kind::kBool:
      *error = "--" + flag.name + " is a switch and takes no value";
      return false;
    case Kind::kInt: {
      std::int64_t v = 0;
      if (!parseNumber(value, &v)) {
        *error = "--" + flag.name + ": expected an integer, got '" +
                 std::string(value) + "'";
        return false;
      }
      if (v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        *error = "--" + flag.name + ": " + std::string(value) +
                 " is out of range";
        return false;
      }
      *static_cast<int*>(flag.out) = static_cast<int>(v);
      return true;
    }
    case Kind::kInt64: {
      std::int64_t v = 0;
      if (!parseNumber(value, &v)) {
        *error = "--" + flag.name + ": expected an integer, got '" +
                 std::string(value) + "'";
        return false;
      }
      *static_cast<std::int64_t*>(flag.out) = v;
      return true;
    }
    case Kind::kDouble: {
      double v = 0;
      if (!parseNumber(value, &v)) {
        *error = "--" + flag.name + ": expected a number, got '" +
                 std::string(value) + "'";
        return false;
      }
      *static_cast<double*>(flag.out) = v;
      return true;
    }
    case Kind::kString:
      *static_cast<std::string*>(flag.out) = std::string(value);
      return true;
    case Kind::kRepeated:
      static_cast<std::vector<std::string>*>(flag.out)
          ->emplace_back(value);
      return true;
  }
  return false;  // unreachable
}

bool ArgSpec::tryParse(int* argc, char** argv, std::string* error) {
  std::vector<std::string_view> positionals;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];

    bool consumed = false;
    for (const auto& fn : consumers_) {
      if (fn(arg)) {
        consumed = true;
        break;
      }
    }
    if (consumed) continue;

    bool passed = false;
    for (const std::string& prefix : passthrough_) {
      if (arg.rfind(prefix, 0) == 0) {
        argv[w++] = argv[i];
        passed = true;
        break;
      }
    }
    if (passed) continue;

    if (arg == "--help" || arg == "-h") {
      helpSeen_ = true;
      continue;
    }

    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      const std::string_view body = arg.substr(2);
      const std::size_t eq = body.find('=');
      const std::string_view name =
          eq == std::string_view::npos ? body : body.substr(0, eq);
      const Flag* flag = findFlag(name);
      if (flag == nullptr) {
        *error = "unknown flag '" + std::string(arg) + "'";
        return false;
      }
      seen_.push_back(flag->name);
      if (flag->kind == Kind::kBool) {
        if (eq != std::string_view::npos) {
          *error = "--" + flag->name + " is a switch and takes no value";
          return false;
        }
        *static_cast<bool*>(flag->out) = true;
        continue;
      }
      std::string_view value;
      if (eq != std::string_view::npos) {
        value = body.substr(eq + 1);
      } else {
        if (i + 1 >= *argc) {
          *error = "--" + flag->name + " needs a value";
          return false;
        }
        value = argv[++i];
      }
      if (!applyValue(*flag, value, error)) return false;
      continue;
    }

    positionals.push_back(arg);
  }
  *argc = w;

  if (helpSeen_) return true;

  std::size_t pi = 0;
  for (const Positional& p : positionals_) {
    if (pi < positionals.size()) {
      *p.out = std::string(positionals[pi++]);
    } else if (p.required) {
      *error = "missing required argument <" + p.name + ">";
      return false;
    }
  }
  if (pi < positionals.size()) {
    if (rest_ == nullptr) {
      *error = "unexpected argument '" + std::string(positionals[pi]) + "'";
      return false;
    }
    for (; pi < positionals.size(); ++pi)
      rest_->emplace_back(positionals[pi]);
  }
  return true;
}

bool ArgSpec::seen(std::string_view name) const {
  return std::find(seen_.begin(), seen_.end(), name) != seen_.end();
}

void ArgSpec::parse(int* argc, char** argv) {
  std::string error;
  if (!tryParse(argc, argv, &error)) {
    std::fprintf(stderr, "%s: %s\n\n%s", argv[0], error.c_str(),
                 help().c_str());
    std::exit(2);
  }
  if (helpSeen_) {
    std::fputs(help().c_str(), stdout);
    std::exit(0);
  }
}

std::string ArgSpec::help() const {
  std::ostringstream os;
  os << "usage: " << usage_ << "\n";
  if (!description_.empty()) os << "\n" << description_ << "\n";
  if (!positionals_.empty() || rest_ != nullptr) {
    os << "\narguments:\n";
    for (const Positional& p : positionals_) {
      os << "  <" << p.name << ">" << (p.required ? "" : " (optional)")
         << "  " << p.help << "\n";
    }
    if (rest_ != nullptr)
      os << "  <" << restName_ << ">...  " << restHelp_ << "\n";
  }
  os << "\nflags:\n";
  for (const Flag& f : flags_) {
    std::string left = "  --" + f.name;
    if (f.kind != Kind::kBool) left += "=V";
    os << left;
    for (std::size_t i = left.size(); i < 26; ++i) os << ' ';
    os << f.help << "\n";
  }
  os << "  --help                    print this help and exit\n";
  for (const std::string& prefix : passthrough_)
    os << "  " << prefix << "*  forwarded untouched\n";
  return os.str();
}

}  // namespace ssvsp
