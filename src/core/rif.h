/**
 * @file
 * Umbrella header for the RiF library: include this to get the full
 * public API — the experiment facade, the SSD simulator, the ODEAR
 * engine (RP/RVS), the QC-LDPC substrate, the NAND error models and the
 * workload generators.
 */

#ifndef RIF_CORE_RIF_H
#define RIF_CORE_RIF_H

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "core/experiment.h"
#include "ldpc/capability.h"
#include "ldpc/channel.h"
#include "ldpc/code.h"
#include "ldpc/decoder.h"
#include "nand/characterization.h"
#include "nand/geometry.h"
#include "nand/randomizer.h"
#include "nand/rber_model.h"
#include "nand/vref_table.h"
#include "nand/vth_model.h"
#include "odear/accuracy.h"
#include "odear/engine.h"
#include "odear/overhead.h"
#include "odear/rearrange.h"
#include "odear/rp_module.h"
#include "odear/rvs_module.h"
#include "ssd/ssd.h"
#include "trace/stream.h"
#include "trace/trace.h"

#endif // RIF_CORE_RIF_H
