// The harness of the JSON benches: their two shared flags, the BENCH_*.json
// record, its stdout echo, the gates and the exit status. Each bench holds
// its own thresholds, so its exit status is the whole verdict.
//
// A bench records each number once, formatted when it is recorded, into an
// ordered record of scalars, nested objects and arrays of row objects.
// finish() writes that record to the bench's file and echoes the same text
// to stdout, so there is no second table to keep in step with the JSON.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdarg>
#include <cstdio>
#include <list>
#include <string>
#include <string_view>

namespace srv6bpf::bench {

struct Mode {
  bool quick = false;      // short measurement windows (CI smoke)
  bool json_only = false;  // no header and no stdout echo
};

// Reads --quick and --json-only; every other argument is ignored.
inline Mode parse_mode(int argc, char** argv) {
  Mode mode;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick")
      mode.quick = true;
    else if (arg == "--json-only")
      mode.json_only = true;
  }
  return mode;
}

// The title between two rules, with the paper's claim when there is one.
inline void print_header(const char* title,
                         const char* paper_note = nullptr) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  if (paper_note != nullptr) std::printf("(paper: %s)\n", paper_note);
  std::printf("==============================================================\n");
}

// A JSON object under construction. Members keep the order they were
// recorded in. Rendering puts an object whose members are all scalars on one
// line, and every other object one member per line; an array puts one
// element per line.
class Obj {
 public:
  template <std::integral T>
  Obj& num(std::string_view key, T v) {
    return scalar(key, std::to_string(v));
  }
  // Fixed-point with `places` decimals, like printf's "%.*f".
  Obj& num(std::string_view key, double v, int places) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", places, v);
    return scalar(key, buf);
  }
  // A string with no quotes or backslashes to escape.
  Obj& str(std::string_view key, std::string_view s) {
    return scalar(key, "\"" + std::string(s) + "\"");
  }
  Obj& flag(std::string_view key, bool b) {
    return scalar(key, b ? "true" : "false");
  }
  // The nested object `key`, created the first time it is asked for.
  Obj& obj(std::string_view key) { return member(key, Kind::kObject).front(); }
  // Appends a row object to the array `key`.
  Obj& row(std::string_view key) {
    return member(key, Kind::kArray).emplace_back();
  }

  std::string render(int depth = 0) const {
    const bool one_line =
        depth > 0 && std::all_of(members_.begin(), members_.end(),
                                 [](const Member& m) {
                                   return m.kind == Kind::kScalar;
                                 });
    const std::string pad(2 * depth + 2, ' ');
    std::string out = "{";
    const char* sep = one_line ? "" : "\n";
    for (const Member& m : members_) {
      out += sep + (one_line ? "" : pad) + "\"" + m.key + "\": ";
      sep = one_line ? ", " : ",\n";
      if (m.kind == Kind::kScalar) {
        out += m.text;
      } else if (m.kind == Kind::kObject) {
        out += m.kids.front().render(depth + 1);
      } else {
        const char* row_sep = "\n";
        out += "[";
        for (const Obj& row : m.kids) {
          out += row_sep + pad + "  " + row.render(depth + 2);
          row_sep = ",\n";
        }
        out += "\n" + pad + "]";
      }
    }
    if (!one_line) out += "\n" + std::string(2 * depth, ' ');
    return out + "}";
  }

 private:
  enum class Kind { kScalar, kObject, kArray };
  struct Member {
    std::string key;
    Kind kind;
    std::string text;     // a scalar's JSON token
    std::list<Obj> kids;  // the nested object, or the array's rows
  };

  Obj& scalar(std::string_view key, std::string text) {
    members_.push_back({std::string(key), Kind::kScalar, std::move(text), {}});
    return *this;
  }
  std::list<Obj>& member(std::string_view key, Kind kind) {
    for (Member& m : members_)
      if (m.key == key && m.kind == kind) return m.kids;
    members_.push_back({std::string(key), kind, {}, {}});
    if (kind == Kind::kObject) members_.back().kids.emplace_back();
    return members_.back().kids;
  }

  std::list<Member> members_;  // a list: rows and objects handed out stay put
};

// One bench's record, written to `path` by finish().
class Report : public Obj {
 public:
  // Prints the bench's header unless --json-only.
  Report(std::string path, Mode mode, const char* title,
         const char* paper_note)
      : path_(std::move(path)), mode_(mode) {
    if (!mode_.json_only) print_header(title, paper_note);
  }

  // A threshold on a result that does not depend on the host (simulated
  // time, counts, digests): prints "GATE: <message>" to stderr when `ok` is
  // false, which makes finish() fail, in every mode.
  __attribute__((format(printf, 3, 4))) void gate(bool ok, const char* fmt,
                                                  ...) {
    std::va_list args;
    va_start(args, fmt);
    check(ok, /*fatal=*/true, fmt, args);
    va_end(args);
  }

  // A threshold on a wall-clock ratio: fails like gate() on a full run, but
  // under --quick, whose short windows on a shared host are too noisy to
  // fail on, it only prints "WARN: <message>" to stderr.
  __attribute__((format(printf, 3, 4))) void wall_gate(bool ok,
                                                       const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    check(ok, /*fatal=*/!mode_.quick, fmt, args);
    va_end(args);
  }

  // Echoes the record to stdout unless --json-only, then writes it to the
  // file. Returns the exit status: 1 when a gate printed "GATE:" or the file
  // could not be opened, written or closed, 0 otherwise. Only a written file
  // is reported as "wrote <path>".
  int finish() {
    const std::string text = render() + "\n";
    if (!mode_.json_only) std::fputs(text.c_str(), stdout);
    std::FILE* f = std::fopen(path_.c_str(), "w");
    bool wrote = f != nullptr && std::fputs(text.c_str(), f) >= 0;
    if (f != nullptr && std::fclose(f) != 0) wrote = false;
    if (wrote)
      std::printf("wrote %s\n", path_.c_str());
    else
      std::perror(path_.c_str());
    return wrote && !gate_failed_ ? 0 : 1;
  }

 private:
  __attribute__((format(printf, 4, 0))) void check(bool ok, bool fatal,
                                                   const char* fmt,
                                                   std::va_list args) {
    if (ok) return;
    gate_failed_ = gate_failed_ || fatal;
    std::fputs(fatal ? "GATE: " : "WARN: ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
  }

  std::string path_;
  Mode mode_;
  bool gate_failed_ = false;
};

}  // namespace srv6bpf::bench
