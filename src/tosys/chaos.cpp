#include "tosys/chaos.h"

namespace dvs::tosys {

ChaosStats& operator+=(ChaosStats& a, const ChaosStats& b) {
  a.events_checked += b.events_checked;
  a.invariant_checks += b.invariant_checks;
  a.views_installed += b.views_installed;
  a.broadcasts += b.broadcasts;
  a.deliveries += b.deliveries;
  a.fault_events += b.fault_events;
  a.net_sent += b.net_sent;
  a.net_delivered += b.net_delivered;
  a.duplicated += b.duplicated;
  a.reordered += b.reordered;
  a.truncated += b.truncated;
  a.decode_errors += b.decode_errors;
  a.duplicates_suppressed += b.duplicates_suppressed;
  a.datagrams += b.datagrams;
  a.batches += b.batches;
  a.batched_msgs += b.batched_msgs;
  a.restarts += b.restarts;
  a.wal_appends += b.wal_appends;
  a.wal_bytes += b.wal_bytes;
  a.metrics += b.metrics;
  return a;
}

}  // namespace dvs::tosys
