#include "param/certificate.hpp"

#include <sstream>

#include "util/serde.hpp"

namespace ssvsp {
namespace param {

namespace {

const char* boundKindName(BoundExpr::Kind kind) {
  switch (kind) {
    case BoundExpr::Kind::kConst:
      return "const";
    case BoundExpr::Kind::kTPlus:
      return "t_plus";
    case BoundExpr::Kind::kFPlusCapped:
      return "f_plus_capped";
    case BoundExpr::Kind::kConstCapped:
      return "const_capped";
  }
  return "?";
}

bool boundKindFromName(const std::string& name, BoundExpr::Kind* out) {
  if (name == "const") *out = BoundExpr::Kind::kConst;
  else if (name == "t_plus") *out = BoundExpr::Kind::kTPlus;
  else if (name == "f_plus_capped") *out = BoundExpr::Kind::kFPlusCapped;
  else if (name == "const_capped") *out = BoundExpr::Kind::kConstCapped;
  else return false;
  return true;
}

void writeBound(JsonWriter& w, const BoundExpr& b) {
  w.beginObject()
      .kv("kind", boundKindName(b.kind))
      .kv("c", std::int64_t{b.c})
      .endObject();
}

bool readBound(const JsonValue* v, BoundExpr* out) {
  if (v == nullptr || !v->isObject()) return false;
  std::string kind;
  return readJsonString(v->find("kind"), &kind) &&
         boundKindFromName(kind, &out->kind) &&
         readJsonInt(v->find("c"), &out->c);
}

/// 16-hex-digit rendering; u64 fingerprints do not fit JSON's int64 lane.
std::string fingerprintToHex(std::uint64_t fp) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, fp >>= 4) out[static_cast<std::size_t>(i)] = kHex[fp & 0xf];
  return out;
}

bool fingerprintFromHex(const std::string& hex, std::uint64_t* out) {
  if (hex.size() != 16) return false;
  std::uint64_t fp = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    fp = (fp << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = fp;
  return true;
}

}  // namespace

std::string certificateToJson(const ParamCertificate& cert, int indent) {
  std::ostringstream os;
  JsonWriter w(os, indent);
  w.beginObject()
      .kv("schema", kCertSchemaV1)
      .kv("kind", "param_certificate")
      .kv("algorithm", cert.algorithm)
      .kv("model", toString(cert.model))
      .kv("t", std::int64_t{cert.t})
      .kv("cutoff", std::int64_t{cert.cutoff})
      .kv("count_saturation", std::int64_t{cert.countSaturation})
      .kv("declared", cert.declared)
      .kv("bounds_for_all_n", cert.boundsForAllN);

  w.key("bounds");
  if (cert.bounds) {
    w.beginObject();
    w.key("lat");
    writeBound(w, cert.bounds->lat);
    w.key("lat_max");
    writeBound(w, cert.bounds->latMax);
    w.key("lambda");
    writeBound(w, cert.bounds->lambda);
    w.key("lat_by_f");
    writeBound(w, cert.bounds->latByF);
    w.endObject();
  } else {
    w.null();
  }

  w.key("lambda_lower_bound");
  if (cert.lambdaLowerBound)
    w.value(std::int64_t{*cert.lambdaLowerBound});
  else
    w.null();

  w.key("window").beginArray();
  for (const ParamWindowRow& row : cert.window) {
    w.beginObject().kv("n", std::int64_t{row.n});
    w.key("lat");
    writeJsonRound(w, row.lat);
    w.key("lat_max");
    writeJsonRound(w, row.latMax);
    w.key("lambda");
    writeJsonRound(w, row.lambda);
    w.key("lat_by_f").beginArray();
    for (Round r : row.latByF) writeJsonRound(w, r);
    w.endArray();
    w.kv("cells", row.cells)
        .kv("runs", row.runs)
        .kv("states", row.states)
        .kv("edges", row.edges)
        .endObject();
  }
  w.endArray();

  w.key("invariant").beginArray();
  for (const std::string& s : cert.invariant) w.value(s);
  w.endArray();

  w.key("transitions").beginArray();
  for (const auto& [from, to] : cert.transitions)
    w.beginArray().value(std::int64_t{from}).value(std::int64_t{to}).endArray();
  w.endArray();

  w.kv("lambda_witness_ones", std::int64_t{cert.lambdaWitnessOnes});
  w.key("lambda_witness_latency");
  writeJsonRound(w, cert.lambdaWitnessLatency);

  w.kv("fingerprint", fingerprintToHex(cert.fingerprint));
  w.endObject();
  return os.str();
}

std::uint64_t certificateFingerprint(const ParamCertificate& cert) {
  ParamCertificate zeroed = cert;
  zeroed.fingerprint = 0;
  return fnv1a64(certificateToJson(zeroed, /*indent=*/0));
}

bool certificateFromJson(const JsonValue& doc, ParamCertificate* out,
                         std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!checkJsonEnvelope(doc, kCertSchemaV1, "param_certificate", error))
    return false;

  ParamCertificate cert;
  std::string model;
  if (!readJsonString(doc.find("algorithm"), &cert.algorithm) ||
      !readJsonString(doc.find("model"), &model) ||
      !readJsonInt(doc.find("t"), &cert.t) ||
      !readJsonInt(doc.find("cutoff"), &cert.cutoff) ||
      !readJsonInt(doc.find("count_saturation"), &cert.countSaturation) ||
      !readJsonBool(doc.find("declared"), &cert.declared) ||
      !readJsonBool(doc.find("bounds_for_all_n"), &cert.boundsForAllN))
    return fail("bad certificate header");
  if (model == "RS")
    cert.model = RoundModel::kRs;
  else if (model == "RWS")
    cert.model = RoundModel::kRws;
  else
    return fail("bad model '" + model + "'");

  const JsonValue* bounds = doc.find("bounds");
  if (bounds == nullptr) return fail("missing bounds");
  if (bounds->kind != JsonValue::Kind::kNull) {
    DeclaredLatencyBounds b;
    if (!readBound(bounds->find("lat"), &b.lat) ||
        !readBound(bounds->find("lat_max"), &b.latMax) ||
        !readBound(bounds->find("lambda"), &b.lambda) ||
        !readBound(bounds->find("lat_by_f"), &b.latByF))
      return fail("bad bounds");
    cert.bounds = b;
  }

  const JsonValue* llb = doc.find("lambda_lower_bound");
  if (llb == nullptr) return fail("missing lambda_lower_bound");
  if (llb->kind != JsonValue::Kind::kNull) {
    int v;
    if (!readJsonInt(llb, &v)) return fail("bad lambda_lower_bound");
    cert.lambdaLowerBound = v;
  }

  const JsonValue* window = doc.find("window");
  if (window == nullptr || !window->isArray()) return fail("bad window");
  for (const JsonValue& item : window->items) {
    if (!item.isObject()) return fail("bad window row");
    ParamWindowRow row;
    const JsonValue* lat = item.find("lat");
    const JsonValue* latMax = item.find("lat_max");
    const JsonValue* lambda = item.find("lambda");
    const JsonValue* byF = item.find("lat_by_f");
    if (!readJsonInt(item.find("n"), &row.n) || lat == nullptr ||
        !readJsonRound(*lat, &row.lat) || latMax == nullptr ||
        !readJsonRound(*latMax, &row.latMax) || lambda == nullptr ||
        !readJsonRound(*lambda, &row.lambda) || byF == nullptr ||
        !byF->isArray() || !readJsonI64(item.find("cells"), &row.cells) ||
        !readJsonI64(item.find("runs"), &row.runs) ||
        !readJsonI64(item.find("states"), &row.states) ||
        !readJsonI64(item.find("edges"), &row.edges))
      return fail("bad window row");
    for (const JsonValue& r : byF->items) {
      Round round;
      if (!readJsonRound(r, &round)) return fail("bad window row lat_by_f");
      row.latByF.push_back(round);
    }
    cert.window.push_back(std::move(row));
  }

  const JsonValue* invariant = doc.find("invariant");
  if (invariant == nullptr || !invariant->isArray())
    return fail("bad invariant");
  for (const JsonValue& s : invariant->items) {
    std::string state;
    if (!readJsonString(&s, &state)) return fail("bad invariant state");
    cert.invariant.push_back(std::move(state));
  }

  const JsonValue* transitions = doc.find("transitions");
  if (transitions == nullptr || !transitions->isArray())
    return fail("bad transitions");
  for (const JsonValue& pair : transitions->items) {
    int from, to;
    if (!pair.isArray() || pair.items.size() != 2 ||
        !readJsonInt(&pair.items[0], &from) ||
        !readJsonInt(&pair.items[1], &to))
      return fail("bad transition");
    cert.transitions.emplace_back(from, to);
  }

  const JsonValue* witnessLatency = doc.find("lambda_witness_latency");
  std::string fingerprint;
  if (!readJsonInt(doc.find("lambda_witness_ones"), &cert.lambdaWitnessOnes) ||
      witnessLatency == nullptr ||
      !readJsonRound(*witnessLatency, &cert.lambdaWitnessLatency) ||
      !readJsonString(doc.find("fingerprint"), &fingerprint) ||
      !fingerprintFromHex(fingerprint, &cert.fingerprint))
    return fail("bad certificate trailer");

  *out = std::move(cert);
  return true;
}

}  // namespace param
}  // namespace ssvsp
