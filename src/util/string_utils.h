/**
 * @file
 * Small string helpers used across dtrank (parsing, formatting).
 */

#pragma once

#include <string>
#include <vector>

namespace dtrank::util
{

/** Splits `s` on the single-character delimiter, keeping empty fields. */
std::vector<std::string> split(const std::string &s, char delim);

/** Removes leading and trailing ASCII whitespace. */
std::string trim(const std::string &s);

/** Lower-cases ASCII characters. */
std::string toLower(const std::string &s);

/** True when `s` starts with `prefix`. */
bool startsWith(const std::string &s, const std::string &prefix);

/**
 * Formats a double with a fixed number of decimals.
 *
 * @param value The number to format.
 * @param decimals Digits after the decimal point.
 */
std::string formatFixed(double value, int decimals);

/**
 * Parses a double, throwing InvalidArgument on malformed input.
 * Accepts surrounding whitespace but no trailing junk.
 */
double parseDouble(const std::string &s);

/** Parses an integer with the same strictness as parseDouble. */
long parseLong(const std::string &s);

} // namespace dtrank::util

