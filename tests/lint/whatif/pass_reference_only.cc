// Fixture: the reference interpreter's own declaration and definition, and
// comments naming it (e.g. "compare against RunReference(stmt)") — must NOT
// fire.
#include "whatif/engine.h"

namespace hyper::whatif {

class Engine {
 public:
  Result<WhatIfResult> RunReference(const sql::WhatIfStmt& stmt) const;
};

Result<WhatIfResult> WhatIfEngine::RunReference(
    const sql::WhatIfStmt& stmt) const {
  return Status::InvalidArgument("fixture");  // not RunReference(stmt)
}

}  // namespace hyper::whatif
