// The three workloads. Each builds its index `Pinned::setups` times,
// checks its answers, measures for Options::seconds, and fills an
// Outcome with every end-to-end metric (untraced) or every per-layer
// metric (traced). See perfbench/README.md for what each one stresses.
#pragma once

#include "common.h"

namespace perfbench {

/// Closed loop of Index::SearchBatch on mem:.
Outcome RunBatchMem(const Options& o, const Pinned& p);
/// Open-loop arrival-rate ladder through Index::Serve on the cSSD stack.
Outcome RunServeCssd(const Options& o, const Pinned& p);
/// net::Daemon + net::Client readers beside a paced Insert/Remove writer.
Outcome RunRemoteUpdate(const Options& o, const Pinned& p);

/// Per-layer metrics of layers a workload does not run, reported as 0
/// (every per-layer name is printed on every workload).
void ReportNoServer(Outcome* out);
void ReportNoNet(Outcome* out);

/// The set-up, memory and footprint metrics every workload shares.
void ReportSetup(const std::vector<double>& setup_s, const e2lshos::Index& index,
                 Outcome* out);

}  // namespace perfbench
