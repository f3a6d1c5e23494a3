#include "util/string_utils.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "util/error.h"

namespace dtrank::util
{

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toLower(const std::string &s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
formatFixed(double value, int decimals)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(decimals);
    os << value;
    return os.str();
}

double
parseDouble(const std::string &s)
{
    const std::string t = trim(s);
    require(!t.empty(), "parseDouble: empty string");
    char *end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    require(end == t.c_str() + t.size(),
            "parseDouble: malformed number '" + s + "'");
    return v;
}

long
parseLong(const std::string &s)
{
    const std::string t = trim(s);
    require(!t.empty(), "parseLong: empty string");
    char *end = nullptr;
    const long v = std::strtol(t.c_str(), &end, 10);
    require(end == t.c_str() + t.size(),
            "parseLong: malformed integer '" + s + "'");
    return v;
}

} // namespace dtrank::util
