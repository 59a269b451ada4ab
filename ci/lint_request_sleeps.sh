#!/bin/sh
# A fixed sleep on a request path is latency every request pays,
# whatever the work behind it costs: the router's fan-out once slept a
# whole 20 ms poll tick per distributed query while its workers
# answered in about 1 ms.  Code in lib/server and lib/dist that waits
# for something should wake when it happens (a channel, a descriptor,
# a condition), not sleep and look again.  This lint fails CI on any
# `Thread.delay` or `Unix.sleep`/`Unix.sleepf` there that is not on the
# allowlist below.
#
# Allowlist: one entry per deliberate sleep, as file, the whole trimmed
# source line, and the reason.  Entries match the line's text, not its
# number, so edits elsewhere in the file do not disturb them; moving or
# rewording an allowed sleep means updating its entry here.
set -eu

cd "$(dirname "$0")/.."

TAB=$(printf '\t')

allowlist="\
lib/server/server.ml${TAB}if not t.closed then Thread.delay 0.05${TAB}accept-loop backoff: out of descriptors, wait for one to drain
lib/server/server.ml${TAB}if not t.closed then Thread.delay 0.01${TAB}accept-loop backoff: a transient accept error must not spin
lib/dist/router.ml${TAB}if not t.closed then Thread.delay 0.05${TAB}accept-loop backoff: out of descriptors, wait for one to drain
lib/dist/router.ml${TAB}if not t.closed then Thread.delay 0.01${TAB}accept-loop backoff: a transient accept error must not spin
lib/dist/shard_client.ml${TAB}Thread.delay (float_of_int (k * t.backoff_ms) /. 1000.);${TAB}connect retry backoff towards a worker that is restarting
lib/server/admission.ml${TAB}Thread.delay park_interval;${TAB}admission park loop: a bounded wait for an evaluation slot
lib/dist/worker.ml${TAB}if t.fault_step_delay_s > 0. then Thread.delay t.fault_step_delay_s;${TAB}fault seam: a deliberately slow step for straggler drills"

status=0
matches=$(grep -nE '(Thread\.delay|Unix\.sleepf?)\b' lib/server/*.ml lib/dist/*.ml || true)

# One match per line: file:line:text
bad=$(printf '%s\n' "$matches" | while IFS= read -r m; do
  [ -n "$m" ] || continue
  file=${m%%:*}
  rest=${m#*:}
  text=$(printf '%s' "${rest#*:}" | sed 's/^[[:space:]]*//; s/[[:space:]]*$//')
  allowed=no
  while IFS="$TAB" read -r afile aline _reason; do
    if [ "$afile" = "$file" ] && [ "$aline" = "$text" ]; then
      allowed=yes
      break
    fi
  done <<EOF
$allowlist
EOF
  [ "$allowed" = yes ] || printf '%s\n' "$m"
done)

if [ -n "$bad" ]; then
  echo "lint_request_sleeps: fixed sleeps in lib/server or lib/dist:" >&2
  echo "$bad" >&2
  echo >&2
  echo "Wake when the awaited event happens (a condition, a descriptor the" >&2
  echo "producer writes to) instead of sleeping and polling.  A sleep that" >&2
  echo "is genuinely deliberate (a backoff, a fault seam) goes on the" >&2
  echo "allowlist in ci/lint_request_sleeps.sh with its reason." >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "lint_request_sleeps: OK (only the allowlisted backoffs, park loop and fault seam sleep)"
exit "$status"
