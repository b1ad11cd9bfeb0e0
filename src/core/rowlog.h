#ifndef ETSC_CORE_ROWLOG_H_
#define ETSC_CORE_ROWLOG_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace etsc::rowlog {

/// The one append-only record log behind the campaign journal
/// (bench/bench_common.h), the worker fabric's control rows (core/fabric.h)
/// and the serving WAL (core/serving.h); DESIGN.md "Record log". Those
/// modules own their row grammars; every decision about the file format
/// itself lives here:
///
///   * Line 1 is a header `<prefix><N>...`, N the format version. A header
///     naming a newer version than the reader's is refused, never rotated.
///   * Every other line is one row: comma-separated fields closed by the
///     `,#end` sentinel. A row without it was cut by a crash mid-append; it
///     is skipped and counted, never half-parsed. Free-form text fields are
///     escaped so a comma or newline inside one cannot forge the sentinel.
///   * Appends start on a fresh line when a crash left a torn tail, and each
///     row is flushed: a flushed row survives SIGKILL. Nothing is fsync'ed,
///     so rows still in the page cache are lost on power loss.
///   * A file written under another identity is rotated to `<path>.stale`
///     before the first append, never appended to or truncated.

/// Escapes one free-form field: backslash, newline, carriage return and comma
/// become two-character backslash sequences (`\\`, `\n`, `\r`, `\c`), so the
/// field holds no separator and no line break.
std::string EscapeField(std::string_view raw);

/// Inverse of EscapeField; unknown escape sequences pass through verbatim.
std::string UnescapeField(std::string_view escaped);

/// Splits a row body (sentinel stripped) on raw commas into `fields`, which
/// is cleared first; "a,,b," yields four fields. The views point into `body`.
void SplitFields(std::string_view body, std::vector<std::string_view>* fields);

/// Strict decimal parse of a whole field: digits only, no sign, no spaces, no
/// overflow. False leaves `*out` untouched.
bool ParseInt(std::string_view field, uint64_t* out);

/// Strict parse of a whole field as a double written by Row::Real,
/// `nan` and `inf` included; callers that need a finite value check it.
bool ParseReal(std::string_view field, double* out);

/// Builds one row field by field; Seal() closes it with the sentinel.
class Row {
 public:
  /// `reserve` bytes are allocated up front, so a row that fits costs one
  /// allocation.
  explicit Row(size_t reserve = 64) { row_.reserve(reserve); }

  /// Appends a field verbatim; it must hold no comma and no line break.
  Row& Text(std::string_view field);
  /// Appends free-form text through EscapeField.
  Row& Escaped(std::string_view text);
  /// Appends `%.17g`, which round-trips every double (NaN as `nan`).
  Row& Real(double value);
  Row& Int(int64_t value);

  /// The sealed row, without a trailing newline; this Row is left empty.
  std::string Seal();

 private:
  void Separate() {
    if (!row_.empty()) row_ += ',';
  }
  std::string row_;
};

/// `body` with the sentinel appended.
std::string Seal(std::string body);

/// True when `line` ends with the sentinel; `*body` is then the line without
/// it. False for torn rows, headers and junk.
bool Unseal(std::string_view line, std::string_view* body);

/// Format version N of a header line `<prefix><N>...`; 0 when the line does
/// not start with `prefix` or carries no positive version.
int HeaderVersion(std::string_view line, std::string_view prefix);

/// What a log's first line says about the log.
enum class Header {
  kMissing,  // no file, or an empty one
  kMatch,    // exactly the expected header
  kForeign,  // another identity, an older version, or not this log at all
};

/// Reads the first line of `in` and compares it with `expected` (which
/// carries the reader's own version after `prefix`). A header with a newer
/// version is FailedPrecondition with an upgrade hint naming `path`: its rows
/// may use a grammar this build would misread. The line read is stored in
/// `*line` when given.
Result<Header> ReadHeader(std::istream& in, const std::string& path,
                          std::string_view prefix, std::string_view expected,
                          std::string* line = nullptr);

/// Called per sealed row with the body and its 1-based line number.
using RowFn = std::function<Status(std::string_view body, size_t line)>;

/// Reads the rows after the header from `in`: empty lines are ignored, torn
/// rows are skipped and counted into `*torn`, and every sealed row goes to
/// `on_row`. Stops at, and returns, the first error `on_row` returns.
Status ScanRows(std::istream& in, size_t* torn, const RowFn& on_row);

/// Moves `path` to `<path>.stale`, replacing an older stale copy. A failed
/// rename is an IOError: the file is never truncated in place.
Status RotateStale(const std::string& path);

/// Append handle on one log file.
class Appender {
 public:
  /// What Open does with a file that already holds bytes.
  enum class Existing {
    kContinue,  // append after them
    kRotate,    // RotateStale first: they are another run's history
  };

  /// Opens `path` for appending. A missing or empty file gets `header` as its
  /// first line. A tail torn by a crash (no final newline) is closed with a
  /// newline first, so the fragment stays its own unsealed row that every
  /// scan skips instead of merging with the next row. Flushes.
  Status Open(const std::string& path, std::string_view header,
              Existing existing = Existing::kContinue);

  /// Writes one sealed row plus a newline and flushes. InvalidArgument for a
  /// row without the sentinel (it would read back as torn).
  Status Append(std::string_view row);

  bool is_open() const { return out_.is_open(); }

 private:
  std::string path_;
  std::ofstream out_;
};

/// Open + Append + close: for logs that several processes append to under a
/// lock, where a held stream would keep writing to a file another process
/// rotated away.
Status AppendRow(const std::string& path, std::string_view header,
                 std::string_view row);

}  // namespace etsc::rowlog

#endif  // ETSC_CORE_ROWLOG_H_
