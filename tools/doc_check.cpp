// doc_check: keeps the documentation honest. Scans README.md, DESIGN.md,
// EXPERIMENTS.md, and docs/*.md for (a) repo-relative file references,
// verifying each file exists, (b) IOCnnn diagnostic codes, verifying each
// is a registered lint rule — and conversely that every registered rule is
// documented in docs/DIAGNOSTICS.md — and (c) `ioc.bench.*` schema tags,
// verifying each is the one ledger tag of bench_ledger.h that bench_check
// validates. Run by ctest (docs.links) so renames, new rules, and
// schema drift fail the build instead of rotting the docs.
//
// Extra .md files may be passed after the repo root; they are scanned with
// the same rules (ctest uses this to prove doc_check rejects fixtures
// containing an unknown IOC code / bench schema tag).
//
// usage: doc_check <repo-root> [extra.md ...]
// exit 0 clean, 1 findings, 2 usage.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_ledger.h"
#include "lint/rules.h"

namespace fs = std::filesystem;

namespace {

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

int line_of(const std::string& text, std::size_t offset) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: doc_check <repo-root> [extra.md ...]\n");
    return 2;
  }
  const fs::path root = argv[1];
  std::vector<fs::path> doc_files = {root / "README.md", root / "DESIGN.md",
                                     root / "EXPERIMENTS.md"};
  if (fs::is_directory(root / "docs")) {
    for (const auto& e : fs::directory_iterator(root / "docs")) {
      if (e.path().extension() == ".md") doc_files.push_back(e.path());
    }
  }
  for (int i = 2; i < argc; ++i) doc_files.emplace_back(argv[i]);

  // File references: paths rooted at a first-party source directory with an
  // extension. Globs and code-fence wildcards are skipped.
  const std::regex path_re(
      R"((?:src|docs|tools|bench|tests|examples)/[A-Za-z0-9_./-]*\.[A-Za-z0-9]+)");
  const std::regex code_re(R"(IOC[0-9]{3})");
  // Bench artifact schema tags, e.g. "ioc.bench.ledger/v1". Every tag a doc
  // quotes must be the one ledger tag bench_check accepts.
  const std::regex schema_re(R"(ioc\.bench\.[A-Za-z0-9_]+/v[0-9]+)");

  int findings = 0;
  std::set<std::string> codes_seen_in_diagnostics_md;
  for (const fs::path& doc : doc_files) {
    std::string text;
    if (!read_file(doc, &text)) {
      std::printf("doc_check: missing documentation file %s\n",
                  doc.string().c_str());
      ++findings;
      continue;
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), path_re);
         it != std::sregex_iterator(); ++it) {
      const std::string ref = it->str();
      if (ref.find('*') != std::string::npos) continue;
      if (!fs::exists(root / ref)) {
        std::printf("%s:%d: reference to missing file '%s'\n",
                    doc.string().c_str(),
                    line_of(text, static_cast<std::size_t>(it->position())),
                    ref.c_str());
        ++findings;
      }
    }
    const bool is_diagnostics_doc = doc.filename() == "DIAGNOSTICS.md";
    for (auto it = std::sregex_iterator(text.begin(), text.end(), code_re);
         it != std::sregex_iterator(); ++it) {
      const std::string code = it->str();
      if (is_diagnostics_doc) codes_seen_in_diagnostics_md.insert(code);
      if (ioc::lint::find_rule(code) == nullptr) {
        std::printf("%s:%d: unknown diagnostic code '%s'\n",
                    doc.string().c_str(),
                    line_of(text, static_cast<std::size_t>(it->position())),
                    code.c_str());
        ++findings;
      }
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), schema_re);
         it != std::sregex_iterator(); ++it) {
      const std::string tag = it->str();
      if (tag != ioc::bench::kLedgerSchema) {
        std::printf("%s:%d: unknown bench schema tag '%s'\n",
                    doc.string().c_str(),
                    line_of(text, static_cast<std::size_t>(it->position())),
                    tag.c_str());
        ++findings;
      }
    }
  }

  // Inverse check: every registered rule must have a DIAGNOSTICS.md entry.
  for (const auto& r : ioc::lint::rules()) {
    if (codes_seen_in_diagnostics_md.count(r.info.code) == 0) {
      std::printf(
          "docs/DIAGNOSTICS.md: registered diagnostic %s is undocumented\n",
          r.info.code);
      ++findings;
    }
  }

  if (findings == 0) {
    std::printf("doc_check: %zu documentation files clean\n",
                doc_files.size());
    return 0;
  }
  std::printf("doc_check: %d finding(s)\n", findings);
  return 1;
}
