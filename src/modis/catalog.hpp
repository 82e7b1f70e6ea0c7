// LAADS-DAAC-like archive catalog and content service.
//
// NASA's LAADS DAAC serves MODIS products over HTTPS with up to 288 files
// per product per day (one per 5-minute granule). ArchiveService plays that
// role for the workflow: it enumerates granules for (product, satellite,
// time span), reports realistic file sizes — calibrated to the paper's
// per-day volumes (MOD02 ~32 GB, MOD03 ~8.4 GB, MOD06 ~18 GB) — and can
// materialize actual hdfl bytes at any geometry for the preprocessing and
// inference stages.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "modis/products.hpp"

namespace mfw::modis {

enum class ProductKind : std::uint8_t { kMod02 = 0, kMod03 = 1, kMod06 = 2 };

/// LAADS short name, e.g. "MOD021KM" (Terra) / "MYD021KM" (Aqua).
std::string product_short_name(ProductKind kind, Satellite satellite);

/// Parses "MOD021KM" etc. Returns nullopt for unknown names.
std::optional<std::pair<ProductKind, Satellite>> parse_product_name(
    std::string_view name);

/// Identifies one archive file.
struct GranuleId {
  ProductKind product = ProductKind::kMod02;
  Satellite satellite = Satellite::kTerra;
  int year = 2022;
  int day_of_year = 1;
  int slot = 0;

  /// Archive filename, e.g. "MOD021KM.A2022001.0755.061.hdf".
  std::string filename() const;

  bool operator==(const GranuleId&) const = default;
};

/// Parses a filename produced by GranuleId::filename().
std::optional<GranuleId> parse_granule_filename(std::string_view name);

struct CatalogEntry {
  GranuleId id;
  std::uint64_t size_bytes = 0;
};

/// Day range within one year: [first_day, last_day], 1-based inclusive.
struct DaySpan {
  int year = 2022;
  int first_day = 1;
  int last_day = 1;
};

class ArchiveService {
 public:
  explicit ArchiveService(std::uint64_t world_seed = 2022);

  /// All granule files of a product within a day span (288/day), in
  /// chronological order.
  std::vector<CatalogEntry> list(ProductKind product, Satellite satellite,
                                 const DaySpan& span) const;

  /// Deterministic archive file size for a granule.
  std::uint64_t size_of(const GranuleId& id) const;

  /// The product content at the requested geometry, serialized to hdfl
  /// bytes in a buffer of exactly their size: exactly
  /// GranuleGenerator::generate's product for the granule.
  /// (Real downloads move `size_of` bytes; the pipeline materializes content
  /// at working geometry — see DESIGN.md.)
  ///
  /// A granule's products are synthesised together, and the workflow asks
  /// for them in separate calls, so the service holds the two a call did not
  /// ask for until they are asked for. It holds them as product structs, at
  /// most one entry per granule (satellite, year, day, slot and geometry)
  /// and at most four entries, dropping the oldest first. An entry holds at
  /// most two products, up to 6.4 MB at 512 x 340 x 6 (all three take
  /// 8.7 MB), so the service holds at most about 26 MB there. A product
  /// asked for after its entry was dropped, or again after it was handed
  /// out, is synthesised again; the bytes never depend on what is held.
  /// Const and safe to call from several threads at once: a mutex guards
  /// the held entries, and synthesis and serialization run outside it.
  std::vector<std::byte> materialize(const GranuleId& id,
                                     const GranuleGeometry& geometry) const;

  const GranuleGenerator& generator() const { return generator_; }

 private:
  /// One product struct, its alternative indexed by ProductKind.
  using Product = std::variant<Mod02Granule, Mod03Granule, Mod06Granule>;
  /// A granule's products not yet asked for, by ProductKind.
  struct HeldGranule {
    GranuleSpec spec;
    std::array<std::optional<Product>, 3> products;
  };

  GranuleGenerator generator_;
  std::uint64_t seed_;
  mutable std::mutex held_mutex_;
  mutable std::deque<HeldGranule> held_;  // oldest first
};

}  // namespace mfw::modis
