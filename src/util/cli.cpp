#include "util/cli.h"

#include <iostream>
#include <sstream>

#include "util/error.h"
#include "util/string_utils.h"

namespace dtrank::util
{

ArgParser::ArgParser(std::string program_name)
    : program_(std::move(program_name))
{
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    Spec s;
    s.help = help;
    s.is_flag = true;
    specs_[name] = s;
}

void
ArgParser::addOption(const std::string &name, const std::string &help,
                     const std::string &default_value)
{
    Spec s;
    s.help = help;
    s.default_value = default_value;
    specs_[name] = s;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        if (arg == "help") {
            // --help output is the tool's contract with the shell, not
            // a log message, so it belongs on stdout.
            std::cout << usage(); // dtrank-lint-ignore(no-cout-in-src)
            return false;
        }
        std::string name = arg;
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            has_value = true;
        }
        const auto it = specs_.find(name);
        require(it != specs_.end(),
                "unknown option '--" + name + "' (see --help)");
        if (it->second.is_flag) {
            require(!has_value, "flag '--" + name + "' takes no value");
            // A move-assigned temporary: assigning the literal itself
            // trips GCC 12's -Wrestrict false positive.
            values_[name] = std::string("1");
        } else {
            if (!has_value) {
                require(i + 1 < argc,
                        "option '--" + name + "' requires a value");
                value = argv[++i];
            }
            values_[name] = value;
        }
    }
    return true;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    const auto spec = specs_.find(name);
    require(spec != specs_.end() && spec->second.is_flag,
            "getFlag: unknown flag '" + name + "'");
    return values_.count(name) > 0;
}

std::string
ArgParser::get(const std::string &name) const
{
    const auto spec = specs_.find(name);
    require(spec != specs_.end(), "get: unknown option '" + name + "'");
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : spec->second.default_value;
}

long
ArgParser::getLong(const std::string &name) const
{
    return parseLong(get(name));
}

double
ArgParser::getDouble(const std::string &name) const
{
    return parseDouble(get(name));
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_ << " [options]\n\noptions:\n";
    for (const auto &[name, spec] : specs_) {
        os << "  --" << name;
        if (!spec.is_flag)
            os << " <value>";
        os << "\n      " << spec.help;
        if (!spec.is_flag && !spec.default_value.empty())
            os << " (default: " << spec.default_value << ")";
        os << "\n";
    }
    os << "  --help\n      show this message\n";
    return os.str();
}

} // namespace dtrank::util
