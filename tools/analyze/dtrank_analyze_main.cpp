/**
 * @file
 * Command-line driver for the dtrank static analysis engine.
 *
 * Usage:
 *   dtrank_analyze [--root <repo-root>] [--format text|json|sarif]
 *                  [--baseline <file>] [--write-baseline]
 *                  [--list-rules] [dir-or-file...]
 *
 * Positional arguments are repo-root-relative top directories (or
 * individual files) to analyze; the default set is `src tools bench`.
 * `--baseline` filters out the tracked legacy findings before
 * reporting; `--write-baseline` rewrites that file from the current
 * findings instead of reporting them. Exit status is 0 when clean
 * (after baseline filtering), 1 when findings remain, 2 on usage or
 * I/O errors.
 */

#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/analyze.h"

namespace
{

constexpr const char *kUsage =
    "usage: dtrank_analyze [--root <repo-root>] "
    "[--format text|json|sarif]\n"
    "                      [--baseline <file>] [--write-baseline]\n"
    "                      [--list-rules] [dir-or-file...]\n";

std::string
readFileOrDie(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string format = "text";
    std::string baseline_path;
    bool write_baseline = false;
    std::vector<std::string> targets;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            for (const std::string &id : dtrank::analyze::ruleIds())
                std::cout << id << "\n";
            return 0;
        }
        if (arg == "--root" || arg == "--format" ||
            arg == "--baseline") {
            if (i + 1 >= argc) {
                std::cerr << "dtrank_analyze: " << arg
                          << " needs a value\n";
                return 2;
            }
            const std::string value = argv[++i];
            if (arg == "--root")
                root = value;
            else if (arg == "--format")
                format = value;
            else
                baseline_path = value;
            continue;
        }
        if (arg == "--write-baseline") {
            write_baseline = true;
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        }
        if (!arg.empty() && arg[0] == '-') {
            std::cerr << "dtrank_analyze: unknown option " << arg
                      << "\n"
                      << kUsage;
            return 2;
        }
        targets.push_back(arg);
    }
    if (format != "text" && format != "json" && format != "sarif") {
        std::cerr << "dtrank_analyze: --format must be text, json or "
                     "sarif (got '"
                  << format << "')\n";
        return 2;
    }
    if (write_baseline && baseline_path.empty()) {
        std::cerr << "dtrank_analyze: --write-baseline needs "
                     "--baseline <file>\n";
        return 2;
    }

    try {
        using dtrank::analyze::Finding;
        std::vector<Finding> findings =
            dtrank::analyze::analyzeTree(root, targets);

        if (write_baseline) {
            std::ofstream out(baseline_path);
            if (!out)
                throw std::runtime_error("cannot write " +
                                         baseline_path);
            out << dtrank::analyze::renderBaseline(findings);
            std::cout << "dtrank_analyze: wrote " << findings.size()
                      << " finding(s) to " << baseline_path << "\n";
            return 0;
        }

        if (!baseline_path.empty())
            findings = dtrank::analyze::filterBaselined(
                findings, dtrank::analyze::parseBaseline(
                              readFileOrDie(baseline_path)));

        if (format == "json") {
            std::cout << dtrank::analyze::toJson(findings);
        } else if (format == "sarif") {
            std::cout << dtrank::analyze::toSarif(findings);
        } else {
            for (const Finding &finding : findings)
                std::cout << dtrank::analyze::formatFinding(finding)
                          << "\n";
            if (!findings.empty())
                std::cout
                    << findings.size()
                    << " finding(s); suppress a line with "
                       "// dtrank-analyze-ignore(rule-id) or track "
                       "legacy debt in the baseline\n";
        }
        return findings.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "dtrank_analyze: " << e.what() << "\n";
        return 2;
    }
}
