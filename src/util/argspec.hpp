// Declarative argv parser shared by every CLI in the tree.
//
// Before this existed each of the twelve bench binaries, latency_explorer
// and ssvsp_analyze hand-rolled its own strcmp/strncmp loop, each with its
// own spelling quirks (some accepted `--flag VALUE`, some only `--flag=V`,
// none had --help, unknown flags were silently forwarded or ignored).
// ArgSpec centralizes the contract:
//
//   * typed flags: bool switches, int / int64 / double / string values,
//     repeated string values; both `--name=V` and `--name V` spellings;
//   * positional arguments (required or optional), plus a rest-collector;
//   * `--help` prints the generated usage text and exits 0;
//   * an unknown `--flag` prints usage to stderr and exits 2 (the
//     long-standing "bad invocation" exit code of this repo's CLIs);
//   * passthrough prefixes (`--benchmark_`) and consumer hooks
//     (obs::ArtifactSession::parseArg) for flag families owned elsewhere.
//
// parse() rewrites argv in place, removing every token it consumed, so the
// leftovers (benchmark flags) can go to the next parser untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace ssvsp {

class ArgSpec {
 public:
  /// `usage` is the one-line invocation synopsis ("ssvsp_campaign run
  /// [options]"); it heads the generated --help text.
  explicit ArgSpec(std::string usage, std::string description = "");

  // -- flag registration (call before parse) -------------------------------

  /// Boolean switch: `--name` sets *out = true.
  ArgSpec& flag(std::string name, bool* out, std::string help);

  /// Valued flags accept both `--name=V` and `--name V`.
  ArgSpec& value(std::string name, int* out, std::string help);
  ArgSpec& value(std::string name, std::int64_t* out, std::string help);
  ArgSpec& value(std::string name, double* out, std::string help);
  ArgSpec& value(std::string name, std::string* out, std::string help);

  /// Repeatable valued flag: every occurrence appends to *out.
  ArgSpec& repeated(std::string name, std::vector<std::string>* out,
                    std::string help);

  /// Required / optional positional argument, bound in registration order.
  ArgSpec& positional(std::string name, std::string* out, std::string help,
                      bool required = true);

  /// Collects every positional after the named ones.  At most one.
  ArgSpec& rest(std::string name, std::vector<std::string>* out,
                std::string help);

  /// Tokens starting with `prefix` are left in argv untouched (and do not
  /// count as unknown).  Used for google-benchmark's `--benchmark_*`.
  ArgSpec& passthroughPrefix(std::string prefix);

  /// Hook consulted before the registered flags; returning true consumes
  /// the token.  Used for obs::ArtifactSession::parseArg.
  ArgSpec& consumer(std::function<bool(std::string_view)> fn);

  // -- parsing -------------------------------------------------------------

  /// Parses argv[1..argc), removing consumed tokens in place.  On `--help`
  /// prints help() to stdout and exits 0; on an unknown `--flag`, a flag
  /// missing its value, an unparsable value, or a missing required
  /// positional, prints the error and usage to stderr and exits 2.
  void parse(int* argc, char** argv);

  /// Non-exiting core of parse(): returns false and fills *error instead of
  /// exiting (helpSeen() tells --help apart).  For tests and subcommand
  /// dispatchers that own the exit.
  bool tryParse(int* argc, char** argv, std::string* error);

  bool helpSeen() const { return helpSeen_; }

  /// True when the parse met `--name` in either spelling, which tells a
  /// flag given at its default value apart from one not given at all.
  bool seen(std::string_view name) const;

  /// The generated usage/flag-table text.
  std::string help() const;

 private:
  enum class Kind : std::uint8_t {
    kBool,
    kInt,
    kInt64,
    kDouble,
    kString,
    kRepeated
  };
  struct Flag {
    std::string name;  ///< without the leading "--"
    Kind kind;
    void* out;
    std::string help;
  };
  struct Positional {
    std::string name;
    std::string* out;
    std::string help;
    bool required;
  };

  bool applyValue(const Flag& flag, std::string_view value,
                  std::string* error);
  const Flag* findFlag(std::string_view name) const;

  std::string usage_;
  std::string description_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
  std::string restName_;
  std::vector<std::string>* rest_ = nullptr;
  std::string restHelp_;
  std::vector<std::string> passthrough_;
  std::vector<std::function<bool(std::string_view)>> consumers_;
  std::vector<std::string> seen_;  ///< names of the flags parsed
  bool helpSeen_ = false;
};

}  // namespace ssvsp
