#include "io/csv.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "io/atomic_file.h"

namespace tsg::io {

namespace {

void AppendRow(std::string& out, const std::vector<std::string>& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    out += EscapeCsvField(row[i]);
    out += (i + 1 < row.size() ? "," : "\n");
  }
}

}  // namespace

bool ParseDoubleCell(const std::string& cell, double* out) {
  const char* begin = cell.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  // ERANGE also flags subnormal results, which are exact parses of a printed
  // subnormal; only an overflow to infinity is out of range.
  if (end == begin || (errno == ERANGE && std::isinf(v))) return false;
  while (*end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) return false;
    ++end;
  }
  *out = v;
  return true;
}

std::string EscapeCsvField(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

Status WriteCsv(const std::string& path, const std::vector<std::string>& header,
                const linalg::Matrix& data) {
  std::ostringstream os;
  os.precision(17);  // max_digits10: doubles round-trip exactly.
  std::string content;
  if (!header.empty()) AppendRow(content, header);
  for (int64_t i = 0; i < data.rows(); ++i) {
    for (int64_t j = 0; j < data.cols(); ++j) {
      os.str("");
      os << data(i, j);
      content += os.str();
      content += (j + 1 < data.cols() ? "," : "\n");
    }
  }
  return WriteFileAtomic(path, content);
}

Status WriteCsvRows(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::string content;
  for (const auto& row : rows) AppendRow(content, row);
  return WriteFileAtomic(path, content);
}

StatusOr<std::vector<std::vector<std::string>>> ReadCsvRows(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  // True once the current line has any content (field chars, quotes, or commas).
  // Distinguishes a blank line (skipped) from a record with one empty field, and
  // makes a trailing comma produce its empty final field ("1,2," is 3 fields —
  // a separator always implies one more field than separators seen).
  bool line_active = false;
  size_t i = 0;
  const size_t n = text.size();
  auto flush_record = [&] {
    if (!line_active) return;
    record.push_back(std::move(field));
    field.clear();
    records.push_back(std::move(record));
    record.clear();
    line_active = false;
  };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      flush_record();
      ++i;
      continue;
    }
    if (c == '\r') {
      // CRLF (or a stray CR) terminates the record; swallow a following LF.
      flush_record();
      ++i;
      if (i < n && text[i] == '\n') ++i;
      continue;
    }
    line_active = true;
    if (c == ',') {
      record.push_back(std::move(field));
      field.clear();
      ++i;
      continue;
    }
    if (c == '"' && field.empty()) {
      // Quoted field: scan to the closing quote; "" is a literal quote and the
      // field may span newlines.
      ++i;
      bool closed = false;
      while (i < n) {
        if (text[i] == '"') {
          if (i + 1 < n && text[i + 1] == '"') {
            field += '"';
            i += 2;
          } else {
            ++i;
            closed = true;
            break;
          }
        } else {
          field += text[i];
          ++i;
        }
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated quoted field in " + path);
      }
      // After the closing quote only a separator (or EOF) is legal.
      if (i < n && text[i] != ',' && text[i] != '\n' && text[i] != '\r') {
        return Status::InvalidArgument("garbage after quoted field in " + path);
      }
      continue;
    }
    field += c;
    ++i;
  }
  flush_record();

  if (records.empty()) {
    return Status::InvalidArgument("empty CSV (no records): " + path);
  }
  return records;
}

StatusOr<linalg::Matrix> ReadCsv(const std::string& path, bool skip_header) {
  TSG_ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> records,
                       ReadCsvRows(path));
  size_t first = 0;
  if (skip_header) first = 1;
  if (records.size() <= first) {
    return Status::InvalidArgument("empty CSV (no data rows): " + path);
  }
  const size_t cols = records[first].size();
  linalg::Matrix m(static_cast<int64_t>(records.size() - first),
                   static_cast<int64_t>(cols));
  for (size_t r = first; r < records.size(); ++r) {
    if (records[r].size() != cols) {
      return Status::InvalidArgument("ragged CSV: " + path);
    }
    for (size_t c = 0; c < cols; ++c) {
      double v = 0.0;
      if (!ParseDoubleCell(records[r][c], &v)) {
        return Status::InvalidArgument("non-numeric cell '" + records[r][c] +
                                       "' in " + path);
      }
      m(static_cast<int64_t>(r - first), static_cast<int64_t>(c)) = v;
    }
  }
  return m;
}

}  // namespace tsg::io
