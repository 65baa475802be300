#!/usr/bin/env bash
# Lints and unit-tests ctc-server's non-unix transport: the blocking
# acceptor under #[cfg(not(unix))] in crates/server/src/transport.rs,
# which a unix toolchain never compiles. The check copies the tracked
# tree to a temporary directory; there, in crates/server/src/*.rs, it
# rewrites every cfg(unix) to cfg(any()) (never true) and deletes the
# #[cfg(not(unix))] lines, so the non-unix code is what compiles. It
# then runs clippy with warnings denied and the crate's lib tests in the
# copy, with the copy's own target directory; the TCP tests there drive
# the blocking acceptor.
#
# Run from the repo root: bash scripts/check_nonunix_transport.sh
set -euo pipefail

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$TMP"
sed -i -e 's/cfg(unix)/cfg(any())/g' -e '/#\[cfg(not(unix))\]/d' \
    "$TMP"/crates/server/src/*.rs
if grep -n 'cfg(unix)\|cfg(not(unix))' "$TMP"/crates/server/src/*.rs; then
    echo "FAIL: a unix cfg survived the rewrite"
    exit 1
fi

cd "$TMP"
export CARGO_TARGET_DIR="$TMP/target"
cargo clippy --offline -p ctc-server --all-targets -- -D warnings
cargo test --offline -q -p ctc-server --lib
echo "OK: the non-unix transport passes clippy and the lib tests"
