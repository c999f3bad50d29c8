// analyze-fixture-as: src/base/bad_include.cc
// analyze-expect: layer-cycle
// Fixture: the base layer reaching up into db — an edge against the
// layer DAG (base -> time -> media -> codec|sched -> storage|net ->
// activity -> db -> hyper|vworld).
#include "db/database.h"

namespace avdb {}
