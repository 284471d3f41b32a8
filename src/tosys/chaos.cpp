#include "tosys/chaos.h"

namespace dvs::tosys {

ChaosStats& operator+=(ChaosStats& a, const ChaosStats& b) {
  a.events_checked += b.events_checked;
  a.invariant_checks += b.invariant_checks;
  a.broadcasts += b.broadcasts;
  a.deliveries += b.deliveries;
  a.fault_events += b.fault_events;
  a.restarts += b.restarts;
  a.metrics += b.metrics;
  return a;
}

}  // namespace dvs::tosys
