#!/usr/bin/env bash
# Net lines of code changed against a base revision, in three groups:
#
#   production  `.rs` lines above their file's first `#[cfg(test)]`,
#               outside any `tests/` directory (examples count here);
#   tests       every other `.rs` line;
#   other       every other file, ISSUE.md excluded.
#
#   .github/net-lines.sh <base-rev>
#
# Compares the working tree (tracked files plus untracked, not ignored
# ones) with <base-rev>, counting a rename as a deletion plus an addition,
# and prints `+added −removed` and the net for each group.
set -euo pipefail

base=${1:?usage: .github/net-lines.sh <base-rev>}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify -q "$base^{commit}" >/dev/null || {
    echo "net-lines: unknown revision $base" >&2
    exit 2
}

# Line number of the first `#[cfg(test)]` in the text on stdin; a line
# past any file's end when there is none. Reads all of stdin, so the
# writer never sees a closed pipe.
first_test_line() {
    awk '!cut && /^[[:space:]]*#\[cfg\(test\)\]/ { cut = NR } END { print cut ? cut : 999999999 }'
}

prod_add=0 prod_del=0 test_add=0 test_del=0 other_add=0 other_del=0

# Adds one `.rs` file's counts. Reads a unified diff on stdin; $1 and
# $2 are the first test line of the old and new text, $3 is 1 when the
# file sits under a `tests/` directory.
count_rust() {
    local counts
    counts=$(awk -v old_cut="$1" -v new_cut="$2" -v all_tests="$3" '
        /^@@ / {
            split($2, o, ","); split($3, n, ",")
            old = substr(o[1], 2) + 0; new = substr(n[1], 2) + 0
            in_hunk = 1
            next
        }
        !in_hunk || /^\\/ { next }
        /^-/ { if (all_tests || old >= old_cut) td++; else pd++; old++ }
        /^\+/ { if (all_tests || new >= new_cut) ta++; else pa++; new++ }
        /^ / { old++; new++ }
        END { print pa + 0, pd + 0, ta + 0, td + 0 }
    ')
    read -r pa pd ta td <<<"$counts"
    prod_add=$((prod_add + pa)) prod_del=$((prod_del + pd))
    test_add=$((test_add + ta)) test_del=$((test_del + td))
}

while IFS= read -r -d '' path; do
    [[ $path == ISSUE.md ]] && continue
    tracked=1
    git cat-file -e "$base:$path" 2>/dev/null || git ls-files --error-unmatch -- "$path" \
        >/dev/null 2>&1 || tracked=0
    if [[ $path == *.rs ]]; then
        old_cut=$({ git show "$base:$path" 2>/dev/null || true; } | first_test_line)
        new_cut=999999999
        [[ -f $path ]] && new_cut=$(first_test_line <"$path")
        all_tests=0
        [[ /$path == */tests/* ]] && all_tests=1
        count_rust "$old_cut" "$new_cut" "$all_tests" < <(
            if ((tracked)); then
                git diff --no-renames "$base" -- "$path"
            else
                echo "@@ -0,0 +1 @@"
                sed 's/^/+/' "$path"
            fi
        )
    elif ((tracked)); then
        a=0 d=0
        read -r a d _ < <(git diff --no-renames --numstat "$base" -- "$path") || true
        [[ $a == - ]] && a=0 d=0 # binary
        other_add=$((other_add + a)) other_del=$((other_del + d))
    else
        other_add=$((other_add + $(wc -l <"$path")))
    fi
done < <(
    git diff --no-renames --name-only -z "$base"
    git ls-files -z --others --exclude-standard
)

signed() { (($1 < 0)) && echo "−$((-$1))" || echo "+$1"; }
report() { printf '%-11s +%d −%d  net %s\n' "$1" "$2" "$3" "$(signed $(($2 - $3)))"; }
echo "net lines vs $base:"
report production "$prod_add" "$prod_del"
report tests "$test_add" "$test_del"
report other "$other_add" "$other_del"
