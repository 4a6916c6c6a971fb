#!/usr/bin/env sh
# Compiles every source under src/ with -DNDEBUG -Wall -Wextra -Werror.
# The regular build strips -DNDEBUG to keep the paper's invariant asserts
# on, so it never sees what a release build sees: a variable read only
# inside assert() becomes an unused-variable error under -Werror.
#
# Most files get -fsyntax-only (front-end warnings only). The files that
# build strings as "literal" + std::to_string(...) are compiled at -O3
# instead, object discarded: GCC's -Wrestrict false positive on that
# pattern only shows once the optimiser runs.
#
# Usage: tools/ndebug_syntax_check.sh <c++ compiler> <-std flag>
# The -std flag comes from the build (CMAKE_CXX_STANDARD), so the standard
# is set in one place.

set -u

ROOT=$(cd "$(dirname "$0")/.." && pwd)
USAGE="usage: tools/ndebug_syntax_check.sh <c++ compiler> <-std flag>"
CXX=${1:?$USAGE}
STD=${2:?$USAGE}
PATTERN='" + std::to_string('

SOURCES=$(find "$ROOT/src" -name '*.cpp' | sort)
# Source paths contain no whitespace, so word splitting is safe here.
# shellcheck disable=SC2086
OPTIMISED=$(grep -lF "$PATTERN" $SOURCES)
# shellcheck disable=SC2086
FRONT_END=$(grep -LF "$PATTERN" $SOURCES)

# shellcheck disable=SC2086
printf '%s\n' $FRONT_END |
  xargs -P 4 -n 1 "$CXX" "$STD" -fsyntax-only -DNDEBUG \
    -Wall -Wextra -Werror -I "$ROOT/src" || {
  echo "FAIL: src/ does not compile with -DNDEBUG -Wall -Wextra -Werror" >&2
  exit 1
}
# shellcheck disable=SC2086
printf '%s\n' $OPTIMISED |
  xargs -P 4 -n 1 "$CXX" "$STD" -O3 -c -o /dev/null -DNDEBUG \
    -Wall -Wextra -Werror -I "$ROOT/src" || {
  echo "FAIL: src/ does not compile with -O3 -DNDEBUG -Wall -Wextra -Werror" >&2
  exit 1
}
echo "ok: src/ passes -DNDEBUG -Wall -Wextra -Werror" \
  "(-O3 for the to_string concatenation sites)"
