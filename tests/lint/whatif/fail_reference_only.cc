// Fixture: a serving entry point that falls back to the reference
// interpreter when Prepare fails — must FIRE reference-only.
#include "whatif/engine.h"

namespace hyper::whatif {

Result<WhatIfResult> Serve(const WhatIfEngine& engine,
                           const sql::WhatIfStmt& stmt) {
  auto prepared = engine.Prepare(stmt);
  if (!prepared.ok()) return engine.RunReference(stmt);
  return engine.Evaluate(**prepared, SpecsOfStatement(stmt));
}

}  // namespace hyper::whatif
