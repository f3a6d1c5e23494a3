/**
 * @file
 * Helpers shared by the benchmark programs: a monotonic clock, process
 * memory readings, a bit-exact content digest, a minimal JSON emitter
 * and the host context every result record carries.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A field of /proc/self/status in KiB (e.g. VmHWM); 0 if absent. */
double procStatusKib(const std::string &field);

/** FNV-1a 64 over raw bytes; feeds doubles by their bit pattern. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t size);
    void str(const std::string &s);
    void f64(double v) { bytes(&v, sizeof v); }
    void doubles(const std::vector<double> &v);
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Flat JSON object builder: numbers, strings and nested raw JSON. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value);
    JsonObject &str(const std::string &key, const std::string &value);
    JsonObject &raw(const std::string &key, const std::string &json);
    JsonObject &nums(const std::string &key, const std::vector<double> &v);
    std::string dump() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** JSON string literal with escapes. */
std::string jsonQuote(const std::string &s);

/**
 * Host context of a record: nproc, CPU model, active SIMD tier,
 * compiler and build type (as a JSON object).
 */
std::string hostContextJson();

/** Median of a non-empty sample (copied, then partially sorted). */
double median(std::vector<double> v);

/** Writes `text` to `path`; throws std::runtime_error on failure. */
void writeFile(const std::string &path, const std::string &text);

} // namespace perfbench
