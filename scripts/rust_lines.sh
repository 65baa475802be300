#!/bin/sh
# Counts the workspace's non-test Rust lines.
#
#   sh scripts/rust_lines.sh          # the working tree
#   sh scripts/rust_lines.sh REV      # a commit (any git revision)
#
# Reads every `.rs` file under crates/*/src, crates/*/benches, src/ and
# examples/, drops each `#[cfg(test)]` item (the attribute through the end
# of the item, found by brace matching that skips strings, character
# literals and comments), and prints two numbers: all remaining lines, and
# the code lines among them (neither blank nor a `//` comment). Test files
# (crates/*/tests, tests/) and vendor/ are not read. Run it on two
# revisions and subtract to get a change's line delta.
set -eu

root=$(git rev-parse --show-toplevel)
if [ $# -gt 1 ]; then
    echo "usage: sh scripts/rust_lines.sh [REV]" >&2
    exit 2
fi
if [ $# -eq 1 ]; then
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git -C "$root" archive "$1" -- crates src examples | tar -x -C "$tree"
    label=$(git -C "$root" rev-parse --short "$1")
else
    tree=$root
    label="working tree"
fi

cd "$tree"
find crates/*/src crates/*/benches src examples -name '*.rs' -type f 2>/dev/null |
    LC_ALL=C sort |
    awk -v label="$label" '
# Net "{" minus "}" on `line`, outside strings, char literals and
# comments; `opens` counts the "{". `mode` carries an open string ("s"),
# raw string ("r") or block comment ("c") over to the next line.
function braces(line,    i, n, ch, two, net) {
    net = 0
    opens = 0
    n = length(line)
    i = 1
    while (i <= n) {
        ch = substr(line, i, 1)
        if (mode == "s") {
            if (ch == "\\") i++
            else if (ch == "\"") mode = ""
            i++
            continue
        }
        if (mode == "r") {
            if (ch == "\"" && substr(line, i + 1, hashes) == hash_run) {
                mode = ""
                i += hashes
            }
            i++
            continue
        }
        if (mode == "c") {
            if (substr(line, i, 2) == "*/") { mode = ""; i++ }
            i++
            continue
        }
        two = substr(line, i, 2)
        if (two == "//") break
        if (two == "/*") { mode = "c"; i += 2; continue }
        if (ch == "r" && match(substr(line, i), /^r#*"/)) {
            hashes = RLENGTH - 2
            hash_run = substr(line, i + 1, hashes)
            mode = "r"
            i += RLENGTH
            continue
        }
        if (ch == "\"") { mode = "s"; i++; continue }
        # A char literal is one character or an escape between quotes;
        # any other quote starts a lifetime.
        if (ch == "\047" && match(substr(line, i), /^\047(\\[^\047]+|[^\\\047])\047/)) {
            i += RLENGTH
            continue
        }
        if (ch == "{") { net++; opens++ }
        else if (ch == "}") net--
        i++
    }
    return net
}
{
    file = $0
    mode = ""
    skipping = 0
    while ((getline line < file) > 0) {
        text = line
        sub(/^[ \t]+/, "", text)
        if (!skipping && mode == "" && text ~ /^#\[cfg\(test\)\]/) {
            skipping = 1
            depth = 0
            opened = 0
        }
        if (skipping) {
            # The item ends where its braces close, or at a ";" if it
            # opens none.
            depth += braces(line)
            if (opens > 0) opened = 1
            if (opened ? depth <= 0 : mode == "" && line ~ /;[ \t]*$/) skipping = 0
            continue
        }
        braces(line)
        all++
        if (text != "" && text !~ /^\/\//) code++
    }
    close(file)
}
END { printf "%s: %d lines, %d code lines\n", label, all, code }
'
