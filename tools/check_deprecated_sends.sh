#!/usr/bin/env bash
# Source lint: InjectionGovernor is constructed only through
# flowcontrol::make_governor.
#
# Usage: check_deprecated_sends.sh [repo-root]
# Exits non-zero and prints offending lines if the rule is broken.
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

status=0

# 6. InjectionGovernor is built ONLY through flowcontrol::make_governor.
#    Direct construction (stack instance, make_unique, new) outside
#    src/flowcontrol/ and src/tenancy/ would mint a governor the tenancy
#    subsystem never sees, silently bypassing per-job QoS window bounds
#    and drain quotas.  Type mentions (pointers, references, accessors,
#    unique_ptr members) are fine and not matched here.
gov_ctor=$(grep -rEn \
    -e 'new[[:space:]]+(flowcontrol::)?InjectionGovernor' \
    -e 'make_unique<[[:space:]]*(flowcontrol::)?InjectionGovernor' \
    -e '\bInjectionGovernor[[:space:]]+[[:alnum:]_]+[[:space:]]*[({]' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src bench examples tests 2>/dev/null \
    | grep -v '^src/flowcontrol/' | grep -v '^src/tenancy/')
if [ -n "$gov_ctor" ]; then
  echo "error: InjectionGovernor must be constructed via" >&2
  echo "flowcontrol::make_governor() (QoS classes bind there); direct" >&2
  echo "construction is confined to src/flowcontrol/ + src/tenancy/:" >&2
  echo "$gov_ctor" >&2
  status=1
fi

if [ "$status" -ne 0 ]; then
  exit 1
fi

echo "check_deprecated_sends: OK (governor factory rule holds)"
exit 0
