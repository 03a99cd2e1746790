// Serialized epoch snapshots: the manifest's payload files.
//
// A snapshot captures everything a ResidentDataset epoch needs to come
// back byte-identical after a crash:
//  * the problem — object coordinates/capacities and function
//    weights/gamma/capacities, raw-bit f32/f64;
//  * the R-tree — root/root_level/size plus the MemNodeStore page
//    table verbatim: every live page's 4 KB bytes AND the free-list
//    order. The free list matters because Allocate() reuses it LIFO;
//    WAL replay on the restored store only reproduces the uncrashed
//    run's pages bit-for-bit if page-id assignment replays too;
//  * the maintained skyline (id + point per member).
//
// The packed function image is NOT serialized: it is a pure function
// of the function set, rebuilt on load per the dataset options
// (serve::BuildPackedImage, the same build every epoch runs).
//
// One trailing CRC32 covers the whole snapshot; a mismatch is typed
// kDataLoss and recovery fails over to an older manifest slot. Files
// are written tmp + fsync + atomic rename (each a crash point), so a
// half-written snapshot never sits at the name a manifest binds.
#ifndef FAIRMATCH_RECOVER_SNAPSHOT_H_
#define FAIRMATCH_RECOVER_SNAPSHOT_H_

#include <string>

#include "fairmatch/serve/dataset_registry.h"

namespace fairmatch {
class FaultInjector;
}

namespace fairmatch::recover {

/// Durably writes a snapshot of `dataset` to `path` (three crash-point
/// boundaries: write, sync, rename).
serve::ServeStatus WriteSnapshot(const std::string& path,
                                 const serve::ResidentDataset& dataset,
                                 FaultInjector* injector);

/// Loads a snapshot into a fresh ResidentDataset (name and epoch from
/// the file, packed image rebuilt per `options`). Corruption — bad
/// magic, failed CRC, malformed payload — comes back kDataLoss with
/// the failing check in the detail; a missing file is kNotFound.
serve::ServeStatus LoadSnapshot(const std::string& path,
                                const serve::DatasetOptions& options,
                                serve::DatasetHandle* out);

}  // namespace fairmatch::recover

#endif  // FAIRMATCH_RECOVER_SNAPSHOT_H_
