#!/bin/sh
# Print the number of non-blank lines in the .cc and .hh files under
# src/: the size figure every CHANGES.md entry records.
# Usage: scripts/src_lines.sh
set -e
cd "$(dirname "$0")/.."
find src -type f \( -name '*.cc' -o -name '*.hh' \) -exec cat {} + |
    grep -c -v '^[[:space:]]*$'
