#include "common/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace iraw {

OptionMap
OptionMap::parse(int argc, const char *const *argv)
{
    OptionMap opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto eq = arg.find('=');
        if (eq == std::string::npos) {
            // Not `= "1"`: gcc 12 with _GLIBCXX_ASSERTIONS at -O2
            // reports that assignment as an overlapping memcpy.
            opts._values.insert_or_assign(arg, "1");
        } else {
            std::string key = arg.substr(0, eq);
            fatalIf(key.empty(), "empty option key in '%s'", arg.c_str());
            opts._values[key] = arg.substr(eq + 1);
        }
    }
    return opts;
}

bool
OptionMap::has(const std::string &key) const
{
    _queried[key] = true;
    return _values.count(key) > 0;
}

std::string
OptionMap::getString(const std::string &key, const std::string &def) const
{
    _queried[key] = true;
    auto it = _values.find(key);
    return it == _values.end() ? def : it->second;
}

int64_t
OptionMap::getInt(const std::string &key, int64_t def) const
{
    _queried[key] = true;
    auto it = _values.find(key);
    if (it == _values.end())
        return def;
    char *end = nullptr;
    errno = 0;
    int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    fatalIf(end == it->second.c_str() || *end != '\0',
            "option %s: '%s' is not an integer", key.c_str(),
            it->second.c_str());
    fatalIf(errno == ERANGE,
            "option %s: '%s' is out of range for a 64-bit integer",
            key.c_str(), it->second.c_str());
    return v;
}

uint64_t
OptionMap::getUint(const std::string &key, uint64_t def) const
{
    _queried[key] = true;
    auto it = _values.find(key);
    if (it == _values.end())
        return def;
    // strtoull would silently wrap "-1" to 2^64-1; reject any sign.
    fatalIf(it->second.find('-') != std::string::npos,
            "option %s: '%s' must be a non-negative integer",
            key.c_str(), it->second.c_str());
    char *end = nullptr;
    errno = 0;
    uint64_t v = std::strtoull(it->second.c_str(), &end, 0);
    fatalIf(end == it->second.c_str() || *end != '\0',
            "option %s: '%s' is not an integer", key.c_str(),
            it->second.c_str());
    fatalIf(errno == ERANGE,
            "option %s: '%s' is out of range for a 64-bit integer",
            key.c_str(), it->second.c_str());
    return v;
}

double
OptionMap::getDouble(const std::string &key, double def) const
{
    _queried[key] = true;
    auto it = _values.find(key);
    if (it == _values.end())
        return def;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(it->second.c_str(), &end);
    fatalIf(end == it->second.c_str() || *end != '\0',
            "option %s: '%s' is not a number (trailing garbage?)",
            key.c_str(), it->second.c_str());
    // Overflow saturates strtod to +/-HUGE_VAL with ERANGE; a
    // silently accepted infinity would poison every downstream
    // computation.  (Gradual underflow to a denormal also reports
    // ERANGE on some libcs; the value is usable, so only magnitude
    // overflow is fatal.)
    fatalIf(errno == ERANGE &&
                (v == HUGE_VAL || v == -HUGE_VAL),
            "option %s: '%s' is out of range for a double",
            key.c_str(), it->second.c_str());
    return v;
}

bool
OptionMap::getBool(const std::string &key, bool def) const
{
    _queried[key] = true;
    auto it = _values.find(key);
    if (it == _values.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("option %s: '%s' is not a boolean", key.c_str(), v.c_str());
}

std::vector<std::string>
OptionMap::unusedKeys() const
{
    std::vector<std::string> unused;
    for (const auto &[key, value] : _values) {
        (void)value;
        if (!_queried.count(key))
            unused.push_back(key);
    }
    return unused;
}

} // namespace iraw
