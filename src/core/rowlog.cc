#include "core/rowlog.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "core/log.h"

namespace etsc::rowlog {

namespace {

/// End-of-row sentinel, the last field of every complete row.
constexpr std::string_view kSentinel = ",#end";

}  // namespace

std::string EscapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case ',':
        out += "\\c";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeField(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 == escaped.size()) {
      out += escaped[i];
      continue;
    }
    switch (escaped[++i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 'c':
        out += ',';
        break;
      default:
        out += '\\';
        out += escaped[i];
    }
  }
  return out;
}

void SplitFields(std::string_view body, std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  while (true) {
    const size_t comma = body.find(',', start);
    if (comma == std::string_view::npos) {
      fields->push_back(body.substr(start));
      return;
    }
    fields->push_back(body.substr(start, comma - start));
    start = comma + 1;
  }
}

bool ParseInt(std::string_view field, uint64_t* out) {
  const char* end = field.data() + field.size();
  uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(field.data(), end, parsed);
  if (field.empty() || ec != std::errc() || ptr != end) return false;
  *out = parsed;
  return true;
}

bool ParseReal(std::string_view field, double* out) {
  const char* end = field.data() + field.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(field.data(), end, parsed);
  if (field.empty() || ec != std::errc() || ptr != end) return false;
  *out = parsed;
  return true;
}

Row& Row::Text(std::string_view field) {
  Separate();
  row_ += field;
  return *this;
}

Row& Row::Escaped(std::string_view text) {
  return Text(EscapeField(text));
}

Row& Row::Real(double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
  return Text(std::string_view(buf, static_cast<size_t>(n)));
}

Row& Row::Int(int64_t value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // 24 bytes hold every int64_t
  return Text(std::string_view(buf, static_cast<size_t>(ptr - buf)));
}

std::string Row::Seal() {
  row_ += kSentinel;
  return std::move(row_);
}

std::string Seal(std::string body) {
  body += kSentinel;
  return body;
}

bool Unseal(std::string_view line, std::string_view* body) {
  if (line.size() < kSentinel.size() ||
      line.substr(line.size() - kSentinel.size()) != kSentinel) {
    return false;
  }
  *body = line.substr(0, line.size() - kSentinel.size());
  return true;
}

int HeaderVersion(std::string_view line, std::string_view prefix) {
  if (line.substr(0, prefix.size()) != prefix) return 0;
  const char* begin = line.data() + prefix.size();
  int version = 0;
  const auto [ptr, ec] =
      std::from_chars(begin, line.data() + line.size(), version);
  if (ec != std::errc() || ptr == begin || version <= 0 || version > 1000000) {
    return 0;
  }
  return version;
}

Result<Header> ReadHeader(std::istream& in, const std::string& path,
                          std::string_view prefix, std::string_view expected,
                          std::string* line) {
  std::string first;
  if (!std::getline(in, first)) return Header::kMissing;
  const Header header = first == expected ? Header::kMatch : Header::kForeign;
  const int theirs = HeaderVersion(first, prefix);
  const int mine = HeaderVersion(expected, prefix);
  if (line != nullptr) *line = std::move(first);
  if (mine > 0 && theirs > mine) {
    return Status::FailedPrecondition(
        path + " was written by a newer build (format v" +
        std::to_string(theirs) + ", this build reads up to v" +
        std::to_string(mine) +
        "): upgrade the binary, or move the file aside to start over");
  }
  return header;
}

Status ScanRows(std::istream& in, size_t* torn, const RowFn& on_row) {
  std::string line;
  size_t number = 1;  // the header
  while (std::getline(in, line)) {
    ++number;
    if (line.empty()) continue;
    std::string_view body;
    if (!Unseal(line, &body)) {
      ++*torn;  // cut by a crash mid-append; its event never became durable
      continue;
    }
    ETSC_RETURN_NOT_OK(on_row(body, number));
  }
  return Status::OK();
}

Status RotateStale(const std::string& path) {
  const std::string stale = path + ".stale";
  std::remove(stale.c_str());
  if (std::rename(path.c_str(), stale.c_str()) != 0) {
    return Status::IOError("cannot rotate " + path + " to " + stale + ": " +
                           std::strerror(errno));
  }
  Logf(LogLevel::kWarn, "rowlog",
       "rotated %s to %s: it was written under another identity",
       path.c_str(), stale.c_str());
  return Status::OK();
}

Status Appender::Open(const std::string& path, std::string_view header,
                      Existing existing) {
  out_.close();
  path_ = path;
  std::streamoff size = 0;
  char last = '\n';
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (probe) size = std::max<std::streamoff>(0, probe.tellg());
    if (size > 0 && !(probe.seekg(-1, std::ios::end) && probe.get(last))) {
      last = '\n';
    }
  }
  if (size > 0 && existing == Existing::kRotate) {
    ETSC_RETURN_NOT_OK(RotateStale(path));
    size = 0;
  }
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) return Status::IOError("cannot open " + path + " for appending");
  // A crash can leave the file without a trailing newline; appending right
  // after the torn bytes would merge two rows into one sealed, silently
  // corrupt line.
  if (size > 0 && last != '\n') out_ << '\n';
  if (size == 0) out_ << header << '\n';
  out_.flush();
  if (!out_) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

Status Appender::Append(std::string_view row) {
  std::string_view body;
  if (!Unseal(row, &body)) {
    return Status::InvalidArgument("unsealed row for " + path_);
  }
  out_ << row << '\n';
  out_.flush();
  if (!out_) return Status::IOError("write to " + path_ + " failed");
  return Status::OK();
}

Status AppendRow(const std::string& path, std::string_view header,
                 std::string_view row) {
  Appender appender;
  ETSC_RETURN_NOT_OK(appender.Open(path, header));
  return appender.Append(row);
}

}  // namespace etsc::rowlog
