#!/usr/bin/env bash
# Usage: check-hot-alignment.sh BINARY
#
# Fails unless each hot engine, process, PDES window-loop, fabric and NIC
# function in BINARY starts on a 64-byte boundary, the layout the
# -falign-functions=64 flag in src/simcore/CMakeLists.txt pins. Without
# it, code added anywhere shifts these functions and moves perfbench's
# stream_64k_fattree by up to 40% with no change to the work done. A
# function missing from BINARY fails too, so a rename cannot drop it from
# the check unnoticed.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BINARY" >&2
  exit 2
fi

hot=(
  'vibe::sim::Engine::postAtImpl'
  'vibe::sim::Process::advance'
  'vibe::sim::Engine::runWindow'
  'vibe::sim::Engine::nextEventTime'
  'vibe::sim::ShardedEngine::sendAt'
  'vibe::sim::ShardedEngine::serveShard'
  'vibe::sim::ShardedEngine::runInline'
  'vibe::sim::ShardedEngine::runShard'
  'vibe::sim::ShardedEngine::execShardWindow'
  'vibe::sim::ShardedEngine::siftDown'
  'vibe::sim::ShardedEngine::completeWindow'
  'vibe::sim::ShardedEngine::deliverOutboxes'
  'vibe::sim::ShardedEngine::fileRunnable'
  'vibe::sim::ShardedEngine::prepareWindow'
  'vibe::sim::ShardedEngine::dispatchWindow'
  'vibe::fabric::Link::send'
  'vibe::fabric::Switch::ingress'
  'vibe::fabric::Switch::forward'
  'vibe::nic::NicDevice::transmit'
  'vibe::nic::NicDevice::handleData'
)

symbols=$(nm -C "$1")
status=0
for fn in "${hot[@]}"; do
  # The function's own text symbol: "ADDR T fn(args)", not its
  # "[clone .cold]" part, which GCC places apart from the hot text.
  addrs=$(awk -v want="$fn(" '
    $2 == "T" || $2 == "t" {
      name = substr($0, length($1) + length($2) + 3)
      if (index(name, want) == 1 && name !~ /\[clone /) print $1
    }' <<<"$symbols")
  if [[ -z $addrs ]]; then
    echo "MISSING  $fn"
    status=1
    continue
  fi
  for addr in $addrs; do
    offset=$((16#$addr % 64))
    if ((offset == 0)); then
      echo "ok       $fn at 0x$addr"
    else
      echo "UNALIGNED $fn at 0x$addr (offset $offset mod 64)"
      status=1
    fi
  done
done
exit $status
