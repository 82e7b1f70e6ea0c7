#include "modis/catalog.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mfw::modis {

namespace {

// Mean archive file sizes calibrated to the paper's per-day volumes
// (32 GB / 8.4 GB / 18 GB across 288 granules).
std::uint64_t mean_size(ProductKind kind) {
  switch (kind) {
    // MOD02 carries a 1.31x base factor compensating the 0.6x night-granule
    // compression applied in size_of(), so the *day total* lands at the
    // paper's ~32 GB.
    case ProductKind::kMod02:
      return static_cast<std::uint64_t>(1.31 * 32.0 *
                                        static_cast<double>(util::kGiB)) /
             288;
    case ProductKind::kMod03: return static_cast<std::uint64_t>(8.4 * static_cast<double>(util::kGiB)) / 288;
    case ProductKind::kMod06: return 18ULL * util::kGiB / 288;
  }
  return 0;
}

const char* kind_tag(ProductKind kind) {
  switch (kind) {
    case ProductKind::kMod02: return "021KM";
    case ProductKind::kMod03: return "03";
    case ProductKind::kMod06: return "06_L2";
  }
  return "";
}

}  // namespace

std::string product_short_name(ProductKind kind, Satellite satellite) {
  const char* prefix = satellite == Satellite::kTerra ? "MOD" : "MYD";
  return std::string(prefix) + kind_tag(kind);
}

std::optional<std::pair<ProductKind, Satellite>> parse_product_name(
    std::string_view name) {
  Satellite satellite;
  if (util::starts_with(name, "MOD")) {
    satellite = Satellite::kTerra;
  } else if (util::starts_with(name, "MYD")) {
    satellite = Satellite::kAqua;
  } else {
    return std::nullopt;
  }
  const auto tag = name.substr(3);
  for (ProductKind kind :
       {ProductKind::kMod02, ProductKind::kMod03, ProductKind::kMod06}) {
    if (tag == kind_tag(kind)) return std::make_pair(kind, satellite);
  }
  return std::nullopt;
}

std::string GranuleId::filename() const {
  const int minutes = slot * 5;
  return util::strformat("%s.A%04d%03d.%02d%02d.061.hdf",
                         product_short_name(product, satellite).c_str(), year,
                         day_of_year, minutes / 60, minutes % 60);
}

std::optional<GranuleId> parse_granule_filename(std::string_view name) {
  const auto parts = util::split(name, '.');
  if (parts.size() != 5 || parts[4] != "hdf") return std::nullopt;
  const auto product = parse_product_name(parts[0]);
  if (!product) return std::nullopt;
  if (parts[1].size() != 8 || parts[1][0] != 'A') return std::nullopt;
  if (parts[2].size() != 4) return std::nullopt;
  GranuleId id;
  id.product = product->first;
  id.satellite = product->second;
  try {
    id.year = std::stoi(parts[1].substr(1, 4));
    id.day_of_year = std::stoi(parts[1].substr(5, 3));
    const int hh = std::stoi(parts[2].substr(0, 2));
    const int mm = std::stoi(parts[2].substr(2, 2));
    if (mm % 5 != 0) return std::nullopt;
    id.slot = hh * 12 + mm / 5;
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (id.slot < 0 || id.slot >= kSlotsPerDay) return std::nullopt;
  if (id.day_of_year < 1 || id.day_of_year > 366) return std::nullopt;
  return id;
}

ArchiveService::ArchiveService(std::uint64_t world_seed)
    : generator_(world_seed), seed_(world_seed) {}

std::vector<CatalogEntry> ArchiveService::list(ProductKind product,
                                               Satellite satellite,
                                               const DaySpan& span) const {
  if (span.first_day < 1 || span.last_day < span.first_day ||
      span.last_day > 366)
    throw std::invalid_argument("invalid day span");
  std::vector<CatalogEntry> out;
  out.reserve(static_cast<std::size_t>(span.last_day - span.first_day + 1) *
              kSlotsPerDay);
  for (int day = span.first_day; day <= span.last_day; ++day) {
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      GranuleId id{product, satellite, span.year, day, slot};
      out.push_back(CatalogEntry{id, size_of(id)});
    }
  }
  return out;
}

std::uint64_t ArchiveService::size_of(const GranuleId& id) const {
  // +-12% deterministic variation per granule; night MOD02 compresses the
  // fill-valued reflective bands, so those files are ~40% smaller, as with
  // the real archive.
  util::Rng rng(util::mix64(
      seed_, util::mix64(static_cast<std::uint64_t>(id.slot) * 7919 +
                             static_cast<std::uint64_t>(id.product),
                         static_cast<std::uint64_t>(id.year) * 1000 +
                             static_cast<std::uint64_t>(id.day_of_year))));
  double size = static_cast<double>(mean_size(id.product)) *
                (1.0 + 0.12 * (2.0 * rng.uniform() - 1.0));
  if (id.product == ProductKind::kMod02 &&
      !is_daytime(id.satellite, id.slot, id.day_of_year)) {
    size *= 0.6;
  }
  return static_cast<std::uint64_t>(size);
}

std::vector<std::byte> ArchiveService::materialize(
    const GranuleId& id, const GranuleGeometry& geometry) const {
  GranuleSpec spec;
  spec.satellite = id.satellite;
  spec.year = id.year;
  spec.day_of_year = id.day_of_year;
  spec.slot = id.slot;
  spec.geometry = geometry;
  switch (id.product) {
    case ProductKind::kMod02: return generator_.mod02(spec).to_hdfl().serialize();
    case ProductKind::kMod03: return generator_.mod03(spec).to_hdfl().serialize();
    case ProductKind::kMod06: return generator_.mod06(spec).to_hdfl().serialize();
  }
  throw std::invalid_argument("unknown product kind");
}

}  // namespace mfw::modis
