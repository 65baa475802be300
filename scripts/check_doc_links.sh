#!/usr/bin/env sh
# Checks that docs can't rot silently as the tree moves:
#
# 1. every relative markdown link in README.md and docs/*.md points at a
#    file that exists (external http* and pure-anchor #... links are
#    skipped);
# 2. every *.md name cited in a .rs file under crates/, src/, tests/ or
#    examples/ resolves: at its given path, at the repo root, or under
#    docs/.
#
# Run from the repo root; exits non-zero listing every broken link.
set -u

status=0
for f in README.md docs/*.md; do
    [ -f "$f" ] || continue
    dir=$(dirname "$f")
    # Extract the (target) of every [text](target) link, one per line.
    links=$(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
    for link in $links; do
        case "$link" in
            http://* | https://* | \#*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "$f: broken relative link -> $link"
            status=1
        fi
    done
done

# `grep -o` prints one `file:line:name` per cited name.
cited=$(grep -rnoE --include='*.rs' '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b' \
    crates src tests examples 2>/dev/null)
for hit in $cited; do
    file=${hit%%:*}
    rest=${hit#*:}
    line=${rest%%:*}
    name=${rest#*:}
    name=${name#./}
    case "$name" in
        *//*) continue ;; # the tail of a URL
    esac
    base=$(basename "$name")
    if [ ! -e "$name" ] && [ ! -e "$base" ] && [ ! -e "docs/$base" ]; then
        echo "$file:$line: cites missing document -> $name"
        status=1
    fi
done
exit $status
