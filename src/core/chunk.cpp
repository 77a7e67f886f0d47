#include "core/chunk.h"

#include <type_traits>

namespace kiwi::core {

// The slab layout computes `k`/`v`/`a` as raw offsets past the header; cells
// are constructed by placement-new, so they must not need cleanup beyond the
// slab free itself.
static_assert(std::is_trivially_destructible_v<Chunk::Cell>,
              "cells live in the slab and are never destroyed individually");
static_assert(sizeof(Chunk) % alignof(Chunk::Cell) == 0,
              "cell array must start aligned after the header");
static_assert(
    std::is_trivially_destructible_v<ChunkT<ByteLayout>::Cell>,
    "cells live in the slab and are never destroyed individually");
static_assert(sizeof(ChunkT<ByteLayout>) %
                      alignof(ChunkT<ByteLayout>::Cell) ==
                  0,
              "cell array must start aligned after the header");
// The byte cell stays fixed-width and compact: {prefix, off, len} packs to
// 16 bytes, so a byte cell (key + version + val_ptr + next) is 32 bytes.
static_assert(sizeof(ByteLayout::CellKey) == 16, "byte cell key grew");
static_assert(sizeof(ByteLayout::StoredValue) == 8, "byte value slot grew");

template class ChunkT<Int64Layout>;
template class ChunkT<ByteLayout>;

}  // namespace kiwi::core
