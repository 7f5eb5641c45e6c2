#!/bin/sh
# check_design_refs.sh — fail if any DESIGN.md citation in the tree does
# not resolve to a real section of DESIGN.md.
#
# The code cites DESIGN.md for specific modelling choices ("DESIGN.md
# ablation A1", "see DESIGN.md for the substitution argument", ...).
# This script keeps those citations honest in two passes:
#
#   1. Topic resolution: every known citation *topic* found in the tree
#      must have its answering section heading in DESIGN.md. The topic
#      table below maps the grep pattern a citation uses to the heading
#      that answers it; a new citation style should add a row here.
#   2. Coverage: every file that mentions DESIGN.md at all must match at
#      least one known topic (or be a documentation file), so a new
#      citation cannot silently bypass pass 1.
#
# Run from the repository root: scripts/check_design_refs.sh
set -u

fail=0
err() { echo "check_design_refs: $*" >&2; fail=1; }

# Pass 2's per-line loop runs in a pipe subshell, so it reports failure
# through a marker file instead of a variable.
unknown_marker="${TMPDIR:-/tmp}/check_design_refs.$$"
rm -f "$unknown_marker"
trap 'rm -f "$unknown_marker"' EXIT

[ -f DESIGN.md ] || { err "DESIGN.md does not exist but the tree cites it"; exit 1; }

# cite <topic-regex> <heading-regex> <description>
# If any tracked file matches topic-regex, DESIGN.md must contain a line
# matching heading-regex. Each heading-regex ends with "( |$)", so a
# heading that only shares its prefix ("## Section 3 windows",
# "### Ablation A10") does not answer the citation.
cite() {
    topic=$1; heading=$2; desc=$3
    files=$(grep -rliE --include='*.go' --include='*.md' -e "$topic" . \
        --exclude-dir=.git --exclude=DESIGN.md 2>/dev/null)
    [ -n "$files" ] || return 0
    if ! grep -qE "$heading" DESIGN.md; then
        err "cited topic '$desc' has no section matching /$heading/ in DESIGN.md"
        echo "  cited from:" >&2
        echo "$files" | sed 's/^/    /' >&2
    fi
}

cite 'DESIGN\.md.s per-experiment index' \
     '^## Per-experiment index( |$)' \
     'per-experiment index'
cite 'DESIGN\.md ablation A1|ablation discussed in DESIGN\.md|CutAtLoads selects the DDT chain ablation' \
     '^### Ablation A1( |$)' \
     'ablation A1 (DDT chain semantics / cut-at-loads)'
cite 'DESIGN\.md ablation A2' \
     '^### Ablation A2( |$)' \
     'ablation A2 (BVIT geometry)'
cite 'DESIGN\.md: StalePhysical' \
     '^## Stale-value policy( |$)' \
     'StalePhysical default rationale'
cite 'see DESIGN\.md for the substitution argument' \
     '^## Workload substitution( |$)' \
     'SPEC95 stand-in substitution argument'
cite 'DESIGN\.md documents our choice' \
     '^## Memory latencies( |$)' \
     'garbled Table 2 latency choice'
cite 'no wrong-path pollution.*see DESIGN\.md|wrong-path pollution' \
     '^## Wrong-path modelling( |$)' \
     'wrong-path modelling'
cite 'as the paper sizes it; see DESIGN\.md' \
     '^## Architectural value shadow( |$)' \
     'architectural value shadow'
cite "DESIGN\\.md.s static contracts section" \
     '^## Static contracts( |$)' \
     'static contracts (arvivet annotation grammar)'
cite "DESIGN\\.md.s flow-sensitive contracts section" \
     '^## Flow-sensitive contracts( |$)' \
     'flow-sensitive contracts (CFG, dataflow solver, nilness, hotpanic proof rules)'
cite "DESIGN\\.md.s incremental RSE maintenance section" \
     '^## Incremental RSE maintenance( |$)' \
     'incremental RSE maintenance (aggregate invariant, delta rules, rollback coherence)'
cite "DESIGN\\.md.s replay loop section" \
     '^## Replay loop( |$)' \
     'replay loop (chunk contract, records in place, pre-decode, rings, same-line fetch, stale width, store scan)'
cite "DESIGN\\.md.s Section 3 window section" \
     '^## Section 3 window( |$)' \
     'Section 3 window (wtrace.Window: register count, free-list order, users)'
cite "DESIGN\\.md.s failure domains section" \
     '^## Failure domains & degraded modes( |$)' \
     'failure domains & degraded modes (cancellation points, circuit breakers, chaos suite)'
cite "DESIGN\\.md.s distributed execution section" \
     '^## Distributed execution( |$)' \
     'distributed execution (coordinator/worker tier, cache-first fan-out, streaming)'

# Pass 2: every *line* citing DESIGN.md must be accounted for by a known
# topic (a citation may continue the sentence begun on the previous
# line, so the preceding line is consulted too), so new citation styles
# get a row in the table above instead of silently passing — even in a
# file that already carries a recognised citation.
known='per-experiment index|ablation A1|ablation A2|ablation discussed in DESIGN|DESIGN\.md: StalePhysical|substitution argument|documents our choice|wrong-path pollution|as the paper sizes it; see DESIGN|CutAtLoads selects the DDT chain ablation|static contracts section|flow-sensitive contracts section|incremental RSE maintenance section|replay loop section|Section 3 window section|failure domains section|distributed execution section|DESIGN\.md references|resolve to a real section|resolves to an existing section|cited anchor|missing DESIGN\.md'
grep -rlE --include='*.go' --include='*.md' 'DESIGN\.md' . \
        --exclude-dir=.git --exclude=DESIGN.md 2>/dev/null |
while IFS= read -r f; do
    case "$f" in
        ./README.md|./CHANGES.md|./ISSUE.md|./PAPER.md|./ROADMAP.md) continue ;;
    esac
    grep -nE 'DESIGN\.md' "$f" | while IFS=: read -r ln _rest; do
        # The citation sentence may span two lines; give the matcher the
        # cited line plus its predecessor.
        ctx=$(sed -n "$((ln > 1 ? ln - 1 : ln)),${ln}p" "$f" | tr '\n' ' ')
        if ! printf '%s\n' "$ctx" | grep -qE "$known"; then
            echo "check_design_refs: $f:$ln cites DESIGN.md with an unrecognised topic; add it to scripts/check_design_refs.sh" >&2
            printf '    %s\n' "$ctx" >&2
            touch "$unknown_marker"
        fi
    done
done
[ -e "$unknown_marker" ] && fail=1

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_design_refs: all DESIGN.md citations resolve"
