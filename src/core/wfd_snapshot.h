// WFD clone templates (DESIGN.md §14).
//
// A WfdSnapshot is a *pristine* template: the set of LibOS modules a WFD of
// one geometry has loaded, plus the fatfs disk and FAT exactly as they were
// right after format and mount. It holds nothing a function wrote — no
// files, no heap bytes — so a clone starts exactly like a full boot, minus
// the module loads (the ~13 ms dlmopen-dominated part of a cold start). The
// heap needs no image: no module writes it when it loads, so clone boot maps
// a fresh arena under the clone's own MPK key.
//
// Snapshots are immutable once published; the visor's SnapshotStore keeps
// one per WFD geometry.

#ifndef SRC_CORE_WFD_SNAPSHOT_H_
#define SRC_CORE_WFD_SNAPSHOT_H_

#include <memory>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/core/libos/module.h"
#include "src/fatfs/fat_volume.h"

namespace alloy {

struct WfdSnapshot {
  // ---- libos state ----
  // Modules loaded in the template. Clone boot constructs each without
  // paying LoadModuleImage (the simulated dlmopen) or device I/O.
  std::vector<ModuleKind> modules;
  // The fatfs disk frozen right after format, and the volume's metadata
  // right after mount (null/empty when fatfs is not in `modules`).
  std::shared_ptr<const asblk::MemDiskImage> disk;
  asfat::FatVolume::MetaImage fat;

  // ---- wfd-level compatibility stamp ----
  // CloneFromSnapshot refuses a snapshot whose geometry does not match the
  // clone's WfdOptions.
  size_t heap_bytes = 0;
  uint64_t disk_blocks = 0;
  bool use_ramfs = false;
  bool load_all = false;

  // One-time template cost: disk chunk bytes referenced by the image.
  // Checked against ALLOY_SNAPSHOT_MAX_BYTES at capture.
  size_t image_bytes = 0;
};

}  // namespace alloy

#endif  // SRC_CORE_WFD_SNAPSHOT_H_
