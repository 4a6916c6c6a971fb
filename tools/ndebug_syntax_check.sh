#!/usr/bin/env sh
# Compiles every source under src/ with -DNDEBUG, syntax and front-end
# warnings only. The regular build strips -DNDEBUG to keep the paper's
# invariant asserts on, so it never sees what a release build sees: a
# variable read only inside assert() becomes an unused-variable error under
# -Werror. Warnings that need the optimiser (-Wrestrict,
# -Wmaybe-uninitialized) are out of reach of -fsyntax-only.
#
# Usage: tools/ndebug_syntax_check.sh <c++ compiler> <-std flag>
# The -std flag comes from the build (CMAKE_CXX_STANDARD), so the standard
# is set in one place.

set -u

ROOT=$(cd "$(dirname "$0")/.." && pwd)
USAGE="usage: tools/ndebug_syntax_check.sh <c++ compiler> <-std flag>"
CXX=${1:?$USAGE}
STD=${2:?$USAGE}

find "$ROOT/src" -name '*.cpp' | sort |
  xargs -P 4 -n 1 "$CXX" "$STD" -fsyntax-only -DNDEBUG \
    -Wall -Wextra -Werror -I "$ROOT/src" || {
  echo "FAIL: src/ does not compile with -DNDEBUG -Wall -Wextra -Werror" >&2
  exit 1
}
echo "ok: src/ passes -fsyntax-only -DNDEBUG -Wall -Wextra -Werror"
