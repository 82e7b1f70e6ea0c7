#include "modis/catalog.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mfw::modis {

namespace {

// Most granules whose unrequested products ArchiveService::materialize
// holds. With its default three download workers the workflow leaves at
// most two granules partly served at a time; a dropped entry costs a second
// synthesis, never a byte.
constexpr std::size_t kHeldGranules = 4;

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
  // printf's "%s.A%04d%03d.%02d%02d.061.hdf" without the printf parser
  // (download spans and staging paths format one per file).
  const int minutes = slot * 5;
  std::string out = product_short_name(product, satellite);
  out += ".A";
  util::append_padded(out, year, 4);
  util::append_padded(out, day_of_year, 3);
  out += '.';
  util::append_padded(out, minutes / 60, 2);
  util::append_padded(out, minutes % 60, 2);
  out += ".061.hdf";
  return out;
}

std::optional<GranuleId> parse_granule_filename(std::string_view name) {
  const auto parts = util::split(name, '.');
  if (parts.size() != 5 || parts[3] != "061" || parts[4] != "hdf")
    return std::nullopt;
  const auto product = parse_product_name(parts[0]);
  if (!product) return std::nullopt;
  if (parts[1].size() != 8 || parts[1][0] != 'A') return std::nullopt;
  if (parts[2].size() != 4) return std::nullopt;
  // Each field is all digits: no sign, no blank, nothing after the number.
  const auto digits = [](std::string_view field, int& out) {
    unsigned value = 0;
    const auto [end, ec] =
        std::from_chars(field.data(), field.data() + field.size(), value);
    out = static_cast<int>(value);
    return ec == std::errc{} && end == field.data() + field.size();
  };
  GranuleId id;
  id.product = product->first;
  id.satellite = product->second;
  int hh = 0;
  int mm = 0;
  if (!digits(parts[1].substr(1, 4), id.year) ||
      !digits(parts[1].substr(5, 3), id.day_of_year) ||
      !digits(parts[2].substr(0, 2), hh) || !digits(parts[2].substr(2, 2), mm))
    return std::nullopt;
  if (mm % 5 != 0 || mm >= 60) return std::nullopt;
  id.slot = hh * 12 + mm / 5;
  if (id.slot >= kSlotsPerDay) return std::nullopt;
  if (id.day_of_year < 1 || id.day_of_year > 366) return std::nullopt;
  // Fixed-width digit fields and a time that is a slot's start: `name` is
  // the name the granule prints, id.filename() == name.
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
  const auto kind = static_cast<std::size_t>(id.product);
  if (kind >= 3) throw std::invalid_argument("unknown product kind");
  GranuleSpec spec;
  spec.satellite = id.satellite;
  spec.year = id.year;
  spec.day_of_year = id.day_of_year;
  spec.slot = id.slot;
  spec.geometry = geometry;
  const auto same_granule = [&spec](const HeldGranule& held) {
    return held.spec == spec;
  };
  std::optional<Product> product;
  {
    const std::lock_guard lock(held_mutex_);
    const auto held = std::find_if(held_.begin(), held_.end(), same_granule);
    if (held != held_.end() && held->products[kind]) {
      product = std::exchange(held->products[kind], std::nullopt);
      if (std::none_of(held->products.begin(), held->products.end(),
                       [](const auto& p) { return p.has_value(); }))
        held_.erase(held);
    }
  }
  if (!product) {
    auto made = generator_.generate(spec);
    HeldGranule entry{spec,
                      {std::move(made.mod02), std::move(made.mod03),
                       std::move(made.mod06)}};
    product = std::exchange(entry.products[kind], std::nullopt);
    const std::lock_guard lock(held_mutex_);
    std::erase_if(held_, same_granule);
    held_.push_back(std::move(entry));
    if (held_.size() > kHeldGranules) held_.pop_front();
  }
  // The product's arrays move into the file, and serialization writes each
  // once into a buffer of the file's exact size.
  const auto file = std::visit(
      [](auto& granule) { return std::move(granule).to_hdfl(); }, *product);
  product.reset();
  return file.serialize();
}

}  // namespace mfw::modis
