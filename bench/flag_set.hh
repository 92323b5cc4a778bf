/**
 * @file
 * Declarative command-line flags for the bench drivers.
 *
 * Every harness used to hand-roll the same strcmp ladder; FlagSet
 * replaces that with a table of (name, metavars, parser, help)
 * entries. Arity comes from the metavar count ("" = switch, "N" =
 * one value, "X Y" = two), `--flag value` and `--flag=value` both
 * work for single-value flags, `--help` is generated from the table,
 * and unknown arguments print the same usage text and exit 2.
 *
 * The error path is split out (tryParse) so tests can probe parse
 * failures without forking a process.
 */

#ifndef SPP_BENCH_FLAG_SET_HH
#define SPP_BENCH_FLAG_SET_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"

namespace spp {
namespace bench {

/** Strictly parse @p text as an unsigned integer in [@p lo, @p hi]
 * (parseUnsigned in common/config); fatal, naming @p flag, on
 * anything else. */
inline std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t lo,
              std::uint64_t hi)
{
    std::uint64_t value = 0;
    const std::string err =
        spp::parseUnsigned(flag, text ? text : "", lo, hi, value);
    if (!err.empty())
        SPP_FATAL("{}", err);
    return value;
}

/** Strictly parse @p text as a number > 0 (parsePositive); fatal,
 * naming @p flag, on anything else. */
inline double
parsePositiveFlag(const char *flag, const char *text)
{
    double value = 0.0;
    const std::string err = parsePositive(flag, text, value);
    if (!err.empty())
        SPP_FATAL("{}", err);
    return value;
}

class FlagSet
{
  public:
    /** Receives exactly the flag's arity of raw value strings. */
    using Handler =
        std::function<void(const std::vector<std::string> &)>;

    /**
     * @p description is the one-line purpose shown under "usage";
     * @p env_note lists the environment variables the program also
     * reads (shown at the bottom of --help).
     */
    explicit FlagSet(std::string description,
                     std::string env_note = "")
        : description_(std::move(description)),
          env_note_(std::move(env_note))
    {}

    /**
     * Register @p name (with leading dashes). @p metavars names the
     * value slots ("", "N", "X Y", ...) and fixes the arity;
     * @p handler runs with that many raw strings when the flag is
     * seen. Returns *this for chaining.
     */
    FlagSet &
    add(std::string name, std::string metavars, std::string help,
        Handler handler)
    {
        unsigned arity = 0;
        std::istringstream words(metavars);
        for (std::string w; words >> w;)
            ++arity;
        specs_.push_back({std::move(name), std::move(metavars),
                          arity, std::move(help),
                          std::move(handler)});
        return *this;
    }

    /** A no-value flag. */
    FlagSet &
    onSwitch(std::string name, std::string help,
             std::function<void()> fn)
    {
        return add(std::move(name), "", std::move(help),
                   [fn = std::move(fn)](
                       const std::vector<std::string> &) { fn(); });
    }

    /** A one-value flag passed through as a raw string. */
    FlagSet &
    onValue(std::string name, std::string metavar, std::string help,
            std::function<void(const std::string &)> fn)
    {
        return add(std::move(name), std::move(metavar),
                   std::move(help),
                   [fn = std::move(fn)](
                       const std::vector<std::string> &v) {
                       fn(v[0]);
                   });
    }

    /** A one-value flag validated by parseUnsigned (fatal on bad
     * input, exactly like the hand-rolled loops it replaces). */
    FlagSet &
    onUnsigned(std::string name, std::string metavar,
               std::uint64_t lo, std::uint64_t hi, std::string help,
               std::function<void(std::uint64_t)> fn)
    {
        const std::string flag = name;
        return add(std::move(name), std::move(metavar),
                   std::move(help),
                   [flag, lo, hi, fn = std::move(fn)](
                       const std::vector<std::string> &v) {
                       fn(parseUnsigned(flag.c_str(), v[0].c_str(),
                                        lo, hi));
                   });
    }

    /** A one-value flag validated by parsePositiveFlag. */
    FlagSet &
    onPositive(std::string name, std::string metavar, std::string help,
               std::function<void(double)> fn)
    {
        const std::string flag = name;
        return add(std::move(name), std::move(metavar),
                   std::move(help),
                   [flag, fn = std::move(fn)](
                       const std::vector<std::string> &v) {
                       fn(parsePositiveFlag(flag.c_str(),
                                            v[0].c_str()));
                   });
    }

    /**
     * Parse @p args (argv[0] already stripped). Returns "" when every
     * argument matched a flag and carried its values, else the
     * complaint to die with. Handlers run as their flags are seen,
     * so a failing parse may have applied a prefix of the line.
     */
    std::string
    tryParse(const std::vector<std::string> &args) const
    {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            const Spec *match = nullptr;
            std::vector<std::string> values;
            for (const Spec &s : specs_) {
                if (arg == s.name) {
                    match = &s;
                    break;
                }
                if (s.arity == 1 &&
                    arg.size() > s.name.size() &&
                    arg[s.name.size()] == '=' &&
                    arg.compare(0, s.name.size(), s.name) == 0) {
                    match = &s;
                    values.push_back(
                        arg.substr(s.name.size() + 1));
                    break;
                }
            }
            if (match == nullptr)
                return "unknown argument '" + arg + "'";
            while (values.size() < match->arity) {
                if (i + 1 >= args.size())
                    return match->name + " expects " +
                        match->metavars;
                values.push_back(args[++i]);
            }
            match->handler(values);
        }
        return "";
    }

    /** Render the generated --help text. */
    void
    printHelp(std::FILE *out, const char *prog) const
    {
        std::fprintf(out, "usage: %s [flags]\n", prog);
        if (!description_.empty())
            std::fprintf(out, "\n%s\n", description_.c_str());
        std::size_t width = 6; // "--help"
        for (const Spec &s : specs_) {
            const std::size_t w = s.name.size() +
                (s.metavars.empty() ? 0 : 1 + s.metavars.size());
            if (w > width)
                width = w;
        }
        std::fprintf(out, "\nflags:\n");
        for (const Spec &s : specs_) {
            std::string head = s.name;
            if (!s.metavars.empty())
                head += " " + s.metavars;
            std::fprintf(out, "  %-*s  %s\n",
                         static_cast<int>(width), head.c_str(),
                         s.help.c_str());
        }
        std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width),
                     "--help", "show this message and exit");
        if (!env_note_.empty())
            std::fprintf(out, "\nenvironment: %s\n",
                         env_note_.c_str());
    }

    /**
     * Parse a main()-style argument vector. --help anywhere prints
     * the generated help to stdout and exits 0; any parse error
     * prints it to stderr and exits 2.
     */
    void
    parse(int argc, char **argv) const
    {
        const std::vector<std::string> args(argv + 1, argv + argc);
        for (const std::string &a : args) {
            if (a == "--help" || a == "-h") {
                printHelp(stdout, argv[0]);
                std::exit(0);
            }
        }
        const std::string err = tryParse(args);
        if (!err.empty()) {
            std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());
            printHelp(stderr, argv[0]);
            std::exit(2);
        }
    }

  private:
    struct Spec
    {
        std::string name;
        std::string metavars;
        unsigned arity;
        std::string help;
        Handler handler;
    };

    std::string description_;
    std::string env_note_;
    std::vector<Spec> specs_;
};

} // namespace bench
} // namespace spp

#endif // SPP_BENCH_FLAG_SET_HH
