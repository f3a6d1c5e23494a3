#!/usr/bin/env python3
"""Generates src/simd/exp_table.h, the 2^(k/128) table of simd's exp.

    python3 tools/gen_exp_table.py > src/simd/exp_table.h

The table is the one of the exp in glibc's sysdeps/ieee754/dbl-64
(ARM optimized-routines): for k in [0, 128), with H[k] the double
nearest 2^(k/128) and T[k] the double nearest 2^(k/128) / H[k] - 1,

    word 2k     = bits(T[k])
    word 2k + 1 = bits(H[k]) - (k << 45)

so that adding (ki << 45) for the reduced exponent ki back to word
2k + 1 gives the bits of 2^(ki/128) scaled by the integer part. Needs
mpmath; every value is computed at 256 bits and rounded once.
"""

import struct

import mpmath

N = 128


def bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def table():
    mpmath.mp.prec = 256
    words = []
    for k in range(N):
        exact = mpmath.power(2, mpmath.mpf(k) / N)
        head = float(exact)  # round to nearest
        tail = float(exact / mpmath.mpf(head) - 1)
        words.append(bits(tail))
        words.append((bits(head) - (k << 45)) % (1 << 64))
    return words


def main():
    words = table()
    print("/**")
    print(" * @file")
    print(" * The 2^(k/128) table of simd's exp (exp.h), generated by")
    print(" * tools/gen_exp_table.py; do not edit. Word 2k is the bits of")
    print(" * T[k] = 2^(k/128) / H[k] - 1 and word 2k + 1 the bits of")
    print(" * H[k] = 2^(k/128) (both rounded to nearest) minus k << 45.")
    print(" */")
    print()
    print("#pragma once")
    print()
    print("#include <cstddef>")
    print("#include <cstdint>")
    print()
    print("namespace dtrank::simd")
    print("{")
    print()
    print("/** Words of the exp table; 2 per k, k in [0, 128). */")
    print("inline constexpr std::size_t kExpTableWords = %d;" % (2 * N))
    print()
    print("alignas(64) inline constexpr std::uint64_t "
          "kExpTable[kExpTableWords] = {")
    for i in range(0, len(words), 2):
        print("    0x%016xULL, 0x%016xULL," % (words[i], words[i + 1]))
    print("};")
    print()
    print("} // namespace dtrank::simd")


if __name__ == "__main__":
    main()
