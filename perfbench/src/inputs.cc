// Workload inputs: the fixed query lists, the seeded documents, and the
// oracle (the in-process serial engine) that every output is checked
// against.

#include <cstdio>

#include "core/prefilter.h"
#include "dtd/dtd.h"
#include "paths/projection_path.h"
#include "perfbench.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace perfbench {

// The query lists are frozen here, not shared with bench/, so the
// benchmark's operation sequence cannot drift when other benches change.
// Projection paths follow Marian & Simeon's extraction for the XMark
// queries and the curated MEDLINE paths of the paper's Table II.
const std::vector<Query>& XmarkQueries() {
  static const std::vector<Query> q = {
      {"XM1", "/site/people/person@ /site/people/person/name#"},
      {"XM2", "/site/open_auctions/open_auction/bidder/increase#"},
      {"XM3", "/site/open_auctions/open_auction/bidder/increase#"},
      {"XM4",
       "/site/open_auctions/open_auction/bidder/personref@ "
       "/site/open_auctions/open_auction/reserve#"},
      {"XM5", "/site/closed_auctions/closed_auction/price#"},
      {"XM6", "/site/regions//item@"},
      {"XM7", "//description //annotation //emailaddress"},
      {"XM8",
       "/site/people/person@ /site/people/person/name# "
       "/site/closed_auctions/closed_auction/buyer@"},
      {"XM9",
       "/site/people/person@ /site/people/person/name# "
       "/site/closed_auctions/closed_auction/buyer@ "
       "/site/closed_auctions/closed_auction/itemref@ "
       "/site/regions/europe/item@ /site/regions/europe/item/name#"},
      {"XM10",
       "/site/categories/category@ /site/categories/category/name# "
       "/site/people/person@ /site/people/person/name# "
       "/site/people/person/emailaddress# /site/people/person/homepage# "
       "/site/people/person/creditcard# /site/people/person/address# "
       "/site/people/person/profile#"},
      {"XM11",
       "/site/people/person/name# /site/people/person/profile@ "
       "/site/open_auctions/open_auction/initial#"},
      {"XM12",
       "/site/people/person/profile@ "
       "/site/open_auctions/open_auction/initial#"},
      {"XM13",
       "/site/regions/australia/item/name# "
       "/site/regions/australia/item/description#"},
      {"XM14", "/site//item/name# /site//item/description#"},
      {"XM17", "/site/people/person/name# /site/people/person/homepage"},
      {"XM18", "/site/open_auctions/open_auction/initial#"},
      {"XM19", "/site/regions//item/location# /site/regions//item/name#"},
      {"XM20", "/site/people/person/profile@"},
  };
  return q;
}

const std::vector<Query>& MedlineQueries() {
  static const std::vector<Query> q = {
      {"M1", "/MedlineCitationSet//CollectionTitle#"},
      {"M2",
       "/MedlineCitationSet//DataBank/DataBankName# "
       "/MedlineCitationSet//DataBank/AccessionNumberList#"},
      {"M3",
       "/MedlineCitationSet//PersonalNameSubjectList/PersonalNameSubject#"},
      {"M4", "/MedlineCitationSet//CopyrightInformation#"},
      {"M5",
       "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
       "/MedlineCitationSet/MedlineCitation/DateCompleted#"},
  };
  return q;
}

const Query& ServeQuery() { return MedlineQueries().back(); }

namespace {

constexpr int kShardedDocs = 8;
constexpr uint64_t kShardedDocBytes = 32ull << 20;

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kXmarkSerial:
      return "xmark-serial";
    case Kind::kXmarkMulti:
      return "xmark-multi";
    case Kind::kMedlineSharded:
      return "medline-sharded";
    case Kind::kMedlineServe:
      return "medline-serve";
  }
  return "";
}

bool ParseKind(const std::string& name, Kind* kind) {
  for (Kind k : {Kind::kXmarkSerial, Kind::kXmarkMulti, Kind::kMedlineSharded,
                 Kind::kMedlineServe}) {
    if (name == KindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

bool Project(const std::string& dtd_text, const char* paths,
             std::string_view doc, std::string* out, std::string* err) {
  auto dtd = smpx::dtd::Dtd::Parse(dtd_text);
  if (!dtd.ok()) {
    *err = dtd.status().ToString();
    return false;
  }
  auto parsed = smpx::paths::ProjectionPath::ParseList(paths);
  if (!parsed.ok()) {
    *err = parsed.status().ToString();
    return false;
  }
  auto pf = smpx::core::Prefilter::Compile(std::move(*dtd), *parsed);
  if (!pf.ok()) {
    *err = pf.status().ToString();
    return false;
  }
  auto r = pf->RunOnBuffer(doc);
  if (!r.ok()) {
    *err = r.status().ToString();
    return false;
  }
  *out = std::move(*r);
  return true;
}

bool MakeInputs(const Config& cfg, Kind kind, Inputs* in, std::string* err) {
  const uint64_t mib = 1ull << 20;
  const bool xmark = kind == Kind::kXmarkSerial || kind == Kind::kXmarkMulti;
  uint64_t bytes = 0;
  int docs = 1;
  switch (kind) {
    case Kind::kXmarkSerial:
    case Kind::kXmarkMulti:
      bytes = cfg.smoke ? 1 * mib : 64 * mib;
      in->queries = XmarkQueries();
      break;
    case Kind::kMedlineSharded:
      // Where a shard's boundary scan region starts (inside markup or not)
      // changes its cost a lot and varies from document to document, so a
      // run covers a corpus rather than one document.
      docs = kShardedDocs;
      bytes = cfg.smoke ? 1 * mib : kShardedDocBytes;
      in->queries = MedlineQueries();
      break;
    case Kind::kMedlineServe:
      bytes = cfg.smoke ? 1 * mib : 64 * mib;
      in->queries = {ServeQuery()};
      break;
  }
  in->kind = kind;
  in->name = KindName(kind);
  in->dtd_path = cfg.work_dir + "/" + in->name + ".dtd";
  in->dtd_text =
      xmark ? smpx::xmlgen::XmarkDtdText() : smpx::xmlgen::MedlineDtdText();
  smpx::Status s = smpx::WriteStringToFile(in->dtd_path, in->dtd_text);
  in->docs.clear();
  for (int j = 0; j < docs && s.ok(); ++j) {
    Doc d;
    d.path = cfg.work_dir + "/" + in->name +
             (docs > 1 ? "." + std::to_string(j) : std::string()) + ".xml";
    // Document j of seed n is generated from seed n * 1000 + j.
    const uint64_t seed = cfg.seed * 1000 + static_cast<uint64_t>(j);
    {
      std::string text;
      if (xmark) {
        smpx::xmlgen::XmarkOptions o;
        o.target_bytes = bytes;
        o.seed = seed;
        text = smpx::xmlgen::GenerateXmark(o);
      } else {
        smpx::xmlgen::MedlineOptions o;
        o.target_bytes = bytes;
        o.seed = seed;
        text = smpx::xmlgen::GenerateMedline(o);
      }
      s = smpx::WriteStringToFile(d.path, text);
    }
    if (!s.ok()) break;
    auto map = smpx::MmapSource::Open(d.path);
    if (!map.ok()) {
      s = map.status();
      break;
    }
    d.map = std::move(*map);
    d.text = d.map->Contiguous();
    for (const Query& q : in->queries) {
      std::string out;
      if (!Project(in->dtd_text, q.paths, d.text, &out, err)) {
        *err = std::string(q.id) + ": " + *err;
        return false;
      }
      d.expected.push_back(Expected::Of(out));
    }
    in->docs.push_back(std::move(d));
  }
  if (!s.ok()) {
    *err = s.ToString();
    return false;
  }
  return true;
}

bool FileMatches(const std::string& path, const Expected& want) {
  auto got = smpx::ReadFileToString(path);
  return got.ok() && got->size() == want.size && Hash64(*got) == want.hash;
}

void CorruptFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  int c = std::fgetc(f);
  if (c != EOF) {
    std::fseek(f, 0, SEEK_SET);
    std::fputc(c ^ 0x20, f);
  }
  std::fclose(f);
}

}  // namespace perfbench
