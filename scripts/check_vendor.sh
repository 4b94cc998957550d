#!/usr/bin/env bash
# Verifies that the offline vendor stubs stay in sync with the workspace
# manifest (a cargo-deny-style source check for a registry-less build):
#
#   1. every directory under vendor/ is listed in [workspace] members,
#   2. every external entry in [workspace.dependencies] resolves to a
#      vendor/ path (nothing silently points back at crates.io),
#   3. every vendored path exists and its package name matches the
#      dependency key it stands in for,
#   4. every vendor crate is wired into [workspace.dependencies] and is a
#      dependency of at least one workspace crate, so a dead stub fails
#      here instead of lingering.
#
# Run from the repository root (CI does). Exits non-zero on the first
# mismatch, printing every problem found.

set -euo pipefail

cd "$(dirname "$0")/.."
manifest="Cargo.toml"
status=0

fail() {
    echo "check_vendor: $*" >&2
    status=1
}

# --- 1. every vendor directory is a workspace member -----------------------
for dir in vendor/*/; do
    crate="${dir%/}"
    [ -f "$crate/Cargo.toml" ] || { fail "$crate has no Cargo.toml"; continue; }
    if ! grep -Eq "^[[:space:]]*\"$crate\"" "$manifest"; then
        fail "$crate is not listed in [workspace] members"
    fi
done

# --- 2 & 3. workspace dependencies with a path into vendor/ ----------------
# Extract `name = { path = "vendor/..." }` pairs from the manifest.
deps=$(sed -n 's/^\([a-zA-Z0-9_-]*\)[[:space:]]*=[[:space:]]*{[[:space:]]*path[[:space:]]*=[[:space:]]*"\(vendor\/[^"]*\)".*/\1 \2/p' "$manifest")

if [ -z "$deps" ]; then
    fail "no vendored dependencies found in [workspace.dependencies]"
fi

while read -r name path; do
    [ -z "$name" ] && continue
    if [ ! -f "$path/Cargo.toml" ]; then
        fail "dependency '$name' points at missing '$path'"
        continue
    fi
    actual=$(sed -n 's/^name[[:space:]]*=[[:space:]]*"\(.*\)"/\1/p' "$path/Cargo.toml" | head -1)
    if [ "$actual" != "$name" ]; then
        fail "dependency '$name' resolves to '$path' whose package name is '$actual'"
    fi
done <<< "$deps"

# --- 4. every vendor crate is actually consumed -----------------------------
# Workspace crate manifests: the root package plus every non-vendor member.
members=$(sed -n '/^members[[:space:]]*=/,/^]/s/^[[:space:]]*"\([^"]*\)".*/\1/p' "$manifest" | grep -v '^vendor/')
crate_manifests="$manifest"
for member in $members; do
    crate_manifests="$crate_manifests $member/Cargo.toml"
done

for dir in vendor/*/; do
    crate_name=$(sed -n 's/^name[[:space:]]*=[[:space:]]*"\(.*\)"/\1/p' "${dir}Cargo.toml" | head -1)
    if ! echo "$deps" | grep -q "^$crate_name "; then
        fail "vendor crate '$crate_name' is not wired into [workspace.dependencies]"
    fi
    # shellcheck disable=SC2086 # word-splitting the manifest list is intended
    if ! grep -Eq "^[[:space:]]*$crate_name([.]workspace[[:space:]]*=[[:space:]]*true|[[:space:]]*=[[:space:]]*\{[^}]*workspace[[:space:]]*=[[:space:]]*true)" $crate_manifests; then
        fail "vendor crate '$crate_name' is not a dependency of any workspace crate"
    fi
done

if [ "$status" -eq 0 ]; then
    echo "check_vendor: OK ($(echo "$deps" | wc -l | tr -d ' ') vendored dependencies in sync)"
fi
exit "$status"
