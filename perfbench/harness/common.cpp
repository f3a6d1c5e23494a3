#include "common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

double
procStatusKib(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, field.size(), field) == 0 &&
            line.size() > field.size() && line[field.size()] == ':')
            return std::stod(line.substr(field.size() + 1));
    }
    return 0.0;
}

void
Digest::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h_ ^= p[i];
        h_ *= 1099511628211ULL;
    }
}

void
Digest::str(const std::string &s)
{
    const std::uint64_t n = s.size();
    bytes(&n, sizeof n);
    bytes(s.data(), s.size());
}

void
Digest::doubles(const std::vector<double> &v)
{
    const std::uint64_t n = v.size();
    bytes(&n, sizeof n);
    bytes(v.data(), v.size() * sizeof(double));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

namespace
{

std::string
numberJson(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

JsonObject &
JsonObject::num(const std::string &key, double value)
{
    fields_.emplace_back(key, numberJson(value));
    return *this;
}

JsonObject &
JsonObject::str(const std::string &key, const std::string &value)
{
    fields_.emplace_back(key, jsonQuote(value));
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
    return *this;
}

JsonObject &
JsonObject::nums(const std::string &key, const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0)
            out += ",";
        out += numberJson(v[i]);
    }
    fields_.emplace_back(key, out + "]");
    return *this;
}

std::string
JsonObject::dump() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += jsonQuote(fields_[i].first);
        out += ": ";
        out += fields_[i].second;
    }
    return out + "}";
}

std::string
hostContextJson()
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    return JsonObject()
        .num("nproc", std::thread::hardware_concurrency())
        .str("cpu_model", cpu)
        .str("simd_tier",
             dtrank::simd::tierName(dtrank::simd::activeTier()))
        .str("compiler", __VERSION__)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .dump();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::runtime_error("median of an empty sample");
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    if (v.size() % 2 == 1)
        return *mid;
    const double upper = *mid;
    return (*std::max_element(v.begin(), mid) + upper) / 2.0;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

} // namespace perfbench
