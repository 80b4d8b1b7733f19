#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

namespace perfbench {

using gridroute::Layer;
using gridroute::Point;
using gridroute::ProblemEdit;
using gridroute::Rect;

void Fingerprint::add(const std::string& bytes) {
  for (const unsigned char c : bytes) {
    value ^= c;
    value *= 1099511628211ull;
  }
  value ^= 0xff;  // separator: "ab"+"c" differs from "a"+"bc"
  value *= 1099511628211ull;
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (0xa0761d6478bd642full * (stream + 1)));
  return rng.next();
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next() % i]);
}

/// Writes a problem in the library's text format.
struct TextProblem {
  std::ostringstream out;
  TextProblem(int width, int height) {
    out << "region " << width << ' ' << height << '\n';
  }
  void net(const char* prefix, std::size_t number) {
    out << "net " << prefix << number << '\n';
  }
  void pin(Point p, const char* layer) {
    out << "pin " << p.x << ' ' << p.y << ' ' << layer << '\n';
  }
};

/// Switchbox with every pin on the boundary (any layer): up to `nets` nets
/// of 2..4 pins on shuffled slots until `fill` of the slots carry pins.
std::string switchbox_text(Rng& rng, int width, int height, int nets,
                           double fill) {
  std::vector<Point> slots;
  for (int x = 0; x < width; ++x) {
    slots.push_back({x, 0});
    slots.push_back({x, height - 1});
  }
  for (int y = 1; y < height - 1; ++y) {
    slots.push_back({0, y});
    slots.push_back({width - 1, y});
  }
  shuffle(slots, rng);
  const auto budget =
      static_cast<std::size_t>(fill * static_cast<double>(slots.size()));
  TextProblem text(width, height);
  std::size_t cursor = 0;
  for (int n = 1; n <= nets && cursor + 1 < budget; ++n) {
    const int pins = rng.uniform(2, 4);
    text.net("n", static_cast<std::size_t>(n));
    for (int p = 0; p < pins && cursor < budget; ++p) text.pin(slots[cursor++], "any");
  }
  return text.out.str();
}

/// Pin positions of a tile board: tile k holds net "t<k>" with three
/// distinct pins inside the tile's interior (one-cell margin), on m1, on m2
/// and on any layer, so every net needs at least one via.
struct TileBoard {
  int cols = 0, rows = 0, tile_w = 0, tile_h = 0;
  std::vector<std::vector<Point>> pins;  ///< per tile

  int x0(int k) const { return (k % cols) * tile_w; }
  int y0(int k) const { return (k / cols) * tile_h; }
  bool interior(int k, Point p) const {
    return p.x >= x0(k) + 1 && p.x <= x0(k) + tile_w - 2 && p.y >= y0(k) + 1 &&
           p.y <= y0(k) + tile_h - 2;
  }
  Point random_interior(int k, Rng& rng) const {
    return {rng.uniform(x0(k) + 1, x0(k) + tile_w - 2),
            rng.uniform(y0(k) + 1, y0(k) + tile_h - 2)};
  }
  std::string text() const {
    TextProblem out(cols * tile_w, rows * tile_h);
    for (std::size_t k = 0; k < pins.size(); ++k) {
      out.net("t", k);
      static const char* const kLayers[] = {"m1", "m2", "any"};
      for (std::size_t p = 0; p < pins[k].size(); ++p) out.pin(pins[k][p], kLayers[p]);
    }
    return out.out.str();
  }
};

TileBoard tile_board(Rng& rng, int cols, int rows, int tile_w, int tile_h) {
  TileBoard board{cols, rows, tile_w, tile_h, {}};
  board.pins.resize(static_cast<std::size_t>(cols * rows));
  for (int k = 0; k < cols * rows; ++k) {
    auto& pins = board.pins[static_cast<std::size_t>(k)];
    while (pins.size() < 3) {
      const Point p = board.random_interior(k, rng);
      if (std::find(pins.begin(), pins.end(), p) == pins.end()) pins.push_back(p);
    }
  }
  return board;
}

/// Three-layer routing pocket: a full-stack block, an m1-only strap, and
/// `nets` nets of 2..3 any-layer pins on free cells.
std::string pocket_text(Rng& rng, int width, int height, int nets) {
  const Rect block{{width / 3, height / 3}, {width / 3 + 1, height / 3 + 1}};
  const int strap_y = height / 5;
  std::ostringstream out;
  out << "region " << width << ' ' << height << "\nlayers 3 hvh\n";
  out << "obstacle " << block.lo.x << ' ' << block.lo.y << ' ' << block.hi.x << ' '
      << block.hi.y << " both\n";
  out << "obstacle 1 " << strap_y << ' ' << width - 2 << ' ' << strap_y << " m1\n";
  std::set<std::pair<int, int>> used;
  for (int n = 1; n <= nets; ++n) {
    out << "net p" << n << '\n';
    const int pins = rng.uniform(2, 3);
    for (int k = 0; k < pins;) {
      const Point p{rng.uniform(0, width - 1), rng.uniform(0, height - 1)};
      if (block.contains(p) || !used.insert({p.x, p.y}).second) continue;
      out << "pin " << p.x << ' ' << p.y << " any\n";
      ++k;
    }
  }
  return out.str();
}

}  // namespace

std::vector<CorpusItem> sparse_corpus(std::uint64_t seed, int count) {
  // One board size: the larger the board, the more host memory contention
  // slows serialization, so with mixed sizes the tail would sit on the
  // noisiest class.
  Rng rng(derive(seed, 2));
  std::vector<CorpusItem> corpus;
  for (int i = 0; i < count; ++i)
    corpus.push_back({"tiles-100x64", tile_board(rng, 10, 8, 10, 8).text()});
  return corpus;
}

EcoInputs eco_inputs(std::uint64_t seed, int edit_count) {
  Rng rng(derive(seed, 3));
  // 192 nets on a 160x96 board: delta planning still outweighs the few nets
  // an edit re-routes, and an edit's working set stays near a core's own
  // cache. On a 600-net board an edit took three times as long and swung
  // more with the load other machines put on the host's memory.
  TileBoard board = tile_board(rng, 16, 12, 10, 8);
  EcoInputs inputs;
  inputs.base_text = board.text();
  const int tiles = board.cols * board.rows;
  // At most one obstacle per tile, never on or next to a pin, and no pin
  // ever moves onto or next to it: every tile stays routable on two layers
  // however long the chain runs.
  std::vector<Point> obstacle(static_cast<std::size_t>(tiles), Point{-1, -1});
  auto chebyshev = [](Point a, Point b) {
    return std::max(std::abs(a.x - b.x), std::abs(a.y - b.y));
  };
  while (static_cast<int>(inputs.edits.size()) < edit_count) {
    const int k = rng.uniform(0, tiles - 1);
    auto& pins = board.pins[static_cast<std::size_t>(k)];
    Point& block = obstacle[static_cast<std::size_t>(k)];
    const int p = rng.uniform(0, 2);
    const Point from = pins[static_cast<std::size_t>(p)];
    const Point to{from.x + rng.uniform(-3, 3), from.y + rng.uniform(-3, 3)};
    if (!board.interior(k, to) || to == from) continue;
    ProblemEdit edit;
    char line[96];
    if (block.x < 0 && rng.unit() < 0.3) {
      // 1x1 obstacle within 3 cells of pin p, clear of every pin.
      bool clear = true;
      for (const Point& q : pins) clear &= chebyshev(q, to) >= 2;
      if (!clear) continue;
      block = to;
      edit.add_obstacles.push_back({Rect{to, to}, Layer::kMetal1, true});
      std::snprintf(line, sizeof line, "obstacle %d %d", to.x, to.y);
    } else {
      if (std::find(pins.begin(), pins.end(), to) != pins.end() ||
          (block.x >= 0 && chebyshev(block, to) <= 1))
        continue;
      pins[static_cast<std::size_t>(p)] = to;
      edit.move_pins.push_back({k, p, to});
      std::snprintf(line, sizeof line, "move %d %d %d %d", k, p, to.x, to.y);
    }
    inputs.edits.push_back(std::move(edit));
    inputs.edit_lines.emplace_back(line);
  }
  return inputs;
}

ServiceInputs service_inputs(std::uint64_t seed, double rate_per_s,
                             double seconds, double miss_share, int hot_count) {
  Rng rng(derive(seed, 4));
  // Misses come from bounded-cost families only, alternating: three-layer
  // pockets and low-fill switchboxes each route in a few milliseconds at
  // most. Fuller random switchboxes have heavy tails that swing the tail
  // latency.
  auto problem = [&](int i) {
    return i % 2 == 0 ? pocket_text(rng, 32, 24, 16)
                      : switchbox_text(rng, 16, 12, 8, 0.25);
  };
  // The hot set is 100x64 tile boards: a hit hashes the problem and renders
  // its cache identity, work that grows with the board, so the hit path
  // costs more than the thread hand-offs around it.
  ServiceInputs inputs;
  for (int i = 0; i < hot_count; ++i) inputs.hot.push_back(tile_board(rng, 10, 8, 10, 8).text());
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.unit()) * 1000.0 / rate_per_s;
    if (t >= seconds * 1000.0) break;
    Arrival a;
    a.due_ms = t;
    a.hit = rng.unit() >= miss_share;
    if (a.hit) {
      a.index = rng.uniform(0, hot_count - 1);
    } else {
      a.index = static_cast<int>(inputs.misses.size());
      inputs.misses.push_back(problem(a.index + 1));
    }
    inputs.arrivals.push_back(a);
  }
  return inputs;
}

std::string fingerprint(const std::vector<CorpusItem>& corpus) {
  Fingerprint f;
  for (const CorpusItem& item : corpus) {
    f.add(item.family);
    f.add(item.text);
  }
  return f.hex();
}

std::string fingerprint(const EcoInputs& inputs) {
  Fingerprint f;
  f.add(inputs.base_text);
  for (const std::string& line : inputs.edit_lines) f.add(line);
  return f.hex();
}

std::string fingerprint(const ServiceInputs& inputs) {
  Fingerprint f;
  for (const std::string& text : inputs.hot) f.add(text);
  for (const std::string& text : inputs.misses) f.add(text);
  char line[64];
  for (const Arrival& a : inputs.arrivals) {
    std::snprintf(line, sizeof line, "%.6f %d %d", a.due_ms, a.hit ? 1 : 0, a.index);
    f.add(line);
  }
  return f.hex();
}

}  // namespace perfbench
