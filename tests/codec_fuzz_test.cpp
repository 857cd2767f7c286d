// Seeded mutation fuzzing of every text and wire codec in src/. Each corpus
// is real serializer output; each mutant flips a byte, deletes or
// duplicates a span, or inserts a delimiter or a hostile number token (a
// lone sign, a 25-digit integer, 1e400, nan). Every parser must then accept
// the mutant, return its no-result value, or throw its declared error;
// anything else (another exception type, a sanitizer report) fails. Where a
// codec has a complete serializer, an accepted mutant serialized and parsed
// again must give the same value: its canonical text is a fixed point.
// Seeds and mutant counts are fixed, so every run replays the same inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "distribution/policy_agent.hpp"
#include "instrument/control.hpp"
#include "instrument/report.hpp"
#include "ldapdir/dn.hpp"
#include "ldapdir/entry.hpp"
#include "ldapdir/filter.hpp"
#include "ldapdir/ldif.hpp"
#include "manager/default_rules.hpp"
#include "policy/condition.hpp"
#include "policy/parser.hpp"
#include "policy/qos_contract.hpp"
#include "rules/parser.hpp"
#include "sim/random.hpp"
#include "sim/rollup.hpp"
#include "sim/span.hpp"
#include "sim/text.hpp"

namespace softqos {
namespace {

constexpr int kMutants = 3000;

/// One to three random edits of `s`.
std::string mutate(std::string s, sim::RandomStream& rng) {
  static constexpr char kDelimiters[] = "|;:=,(){}";
  static const char* const kTokens[] = {"+", "-", "1234567890123456789012345",
                                        "1e400", "nan"};
  const auto at = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(size)));
  };
  const std::int64_t edits = rng.uniformInt(1, 3);
  for (std::int64_t e = 0; e < edits; ++e) {
    switch (rng.uniformInt(0, 4)) {
      case 0:  // flip one bit of one byte
        if (!s.empty()) {
          s[at(s.size() - 1)] ^= static_cast<char>(1 << rng.uniformInt(0, 7));
        }
        break;
      case 1:  // delete a span
        if (!s.empty()) {
          s.erase(at(s.size() - 1),
                  static_cast<std::size_t>(rng.uniformInt(1, 8)));
        }
        break;
      case 2:  // duplicate a span somewhere else
        if (!s.empty()) {
          const std::string span =
              s.substr(at(s.size() - 1),
                       static_cast<std::size_t>(rng.uniformInt(1, 16)));
          s.insert(at(s.size()), span);
        }
        break;
      case 3:
        s.insert(at(s.size()), 1, kDelimiters[rng.uniformInt(0, 8)]);
        break;
      default:
        s.insert(at(s.size()), kTokens[rng.uniformInt(0, 4)]);
        break;
    }
  }
  return s;
}

/// Runs `check` on every seed, then on kMutants mutants of them. `check`
/// catches its parser's declared error itself; any other exception is
/// reported with the input that raised it.
template <typename Check>
void fuzz(const char* codec, const std::vector<std::string>& corpus,
          Check check) {
  for (const std::string& seed : corpus) {
    SCOPED_TRACE(seed);
    EXPECT_TRUE(check(seed)) << codec << " rejects its own serializer output";
  }
  sim::RandomStream rng(0x5eed, codec);
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(corpus[i % corpus.size()], rng);
    try {
      check(mutant);
    } catch (const std::exception& e) {
      ADD_FAILURE() << codec << " threw an undeclared error (" << e.what()
                    << ") on: " << mutant;
    }
  }
}

TEST(CodecFuzz, ViolationReport) {
  instrument::ViolationReport r;
  r.policyId = "NotifyQoSViolation";
  r.pid = 12;
  r.hostName = "client-host";
  r.executable = "VideoApplication";
  r.userRole = "gold";
  r.metrics = {
      {"frame_rate", 17.5}, {"jitter_rate", 0.25}, {"buffer_size", 4096}};
  const std::string plain = r.serialize();
  r.context = sim::TraceContext{77, 78, 0};
  r.violated = false;
  fuzz("report", {plain, r.serialize()}, [](const std::string& text) {
    const auto once = instrument::ViolationReport::parse(text);
    if (!once) return false;
    const std::string canonical = once->serialize();
    const auto twice = instrument::ViolationReport::parse(canonical);
    EXPECT_TRUE(twice.has_value()) << canonical;
    if (twice) {
      EXPECT_EQ(twice->serialize(), canonical);
    }
    return true;
  });
}

TEST(CodecFuzz, ControlCommand) {
  fuzz("control",
       {"CTL|adapt|quality|down|fast", "CTL|set-threshold|7|23.5",
        "CTL|enable-sensor|fps_sensor|1", "CTL|set-tick|fps_sensor|125000",
        "CTL|remove-policy|P1"},
       [](const std::string& text) {
         instrument::ControlCommand once;
         if (!instrument::ControlCommand::parse(text, once)) return false;
         const std::string canonical = once.serialize();
         instrument::ControlCommand twice;
         EXPECT_TRUE(instrument::ControlCommand::parse(canonical, twice))
             << canonical;
         EXPECT_EQ(twice.serialize(), canonical);
         return true;
       });
}

TEST(CodecFuzz, TraceContext) {
  fuzz("trace-context",
       {sim::TraceContext{42, 7, 0}.serialize(),
        sim::TraceContext{18446744073709551615u, 1, 0}.serialize()},
       [](const std::string& text) {
         const sim::TraceContext once = sim::TraceContext::parse(text);
         if (!once.valid()) return false;
         const sim::TraceContext twice =
             sim::TraceContext::parse(once.serialize());
         EXPECT_EQ(twice.traceId, once.traceId);
         EXPECT_EQ(twice.spanId, once.spanId);
         return true;
       });
}

sim::Histogram sampleHistogram() {
  sim::Histogram h;
  h.add(1.0);
  h.add(12345.678);
  h.add(0.25);
  h.addWithExemplar(100.0, 42, sim::msec(5));
  h.addWithExemplar(5000.0, 43, -sim::msec(6));
  return h;
}

TEST(CodecFuzz, Histogram) {
  fuzz("histogram",
       {sim::encodeHistogram(sampleHistogram()), sim::encodeHistogram({})},
       [](const std::string& text) {
         const auto once = sim::decodeHistogram(text);
         if (!once) return false;
         const std::string canonical = sim::encodeHistogram(*once);
         const auto twice = sim::decodeHistogram(canonical);
         EXPECT_TRUE(twice.has_value()) << canonical;
         if (twice) {
           EXPECT_EQ(twice->buckets(), once->buckets());
           EXPECT_EQ(sim::encodeHistogram(*twice), canonical);
         }
         return true;
       });
}

TEST(CodecFuzz, TelemetrySnapshot) {
  sim::TelemetrySnapshot snap;
  snap.source = "host-a";
  snap.windowStart = sim::sec(1);
  snap.windowEnd = sim::sec(2);
  snap.counters = {{"hm.reports", 7}, {"net.drops", -3}};
  snap.histograms = {{"qos.reaction_latency_us", sampleHistogram()}};
  // The extremes of the window bounds are values the serializer can write.
  sim::TelemetrySnapshot extremes = snap;
  extremes.windowStart = std::numeric_limits<std::int64_t>::min();
  extremes.windowEnd = std::numeric_limits<std::int64_t>::max();
  fuzz("telemetry", {snap.serialize(), extremes.serialize()},
       [](const std::string& text) {
         const auto once = sim::TelemetrySnapshot::parse(text);
         if (!once) return false;
         const std::string canonical = once->serialize();
         const auto twice = sim::TelemetrySnapshot::parse(canonical);
         EXPECT_TRUE(twice.has_value()) << canonical;
         if (twice) {
           EXPECT_EQ(twice->windowStart, once->windowStart);
           EXPECT_EQ(twice->windowEnd, once->windowEnd);
           EXPECT_EQ(twice->counters, once->counters);
           EXPECT_EQ(twice->serialize(), canonical);
         }
         return true;
       });
}

policy::QosOffer sampleOffer() {
  return policy::parseQosOffer(
      "deadline=33ms liveliness=automatic:400ms history=8 "
      "durability=transient_local strength=10");
}

policy::QosRequest sampleRequest() {
  return policy::parseQosRequest(
      "deadline<=36ms lease<=500ms history>=4 durability>=transient_local "
      "degrade-deadline<=80ms degrade-history>=1");
}

TEST(CodecFuzz, QosOfferAndRequest) {
  fuzz("offer", {sampleOffer().toString()}, [](const std::string& text) {
    try {
      const policy::QosOffer once = policy::parseQosOffer(text);
      const std::string canonical = once.toString();
      const policy::QosOffer twice = policy::parseQosOffer(canonical);
      EXPECT_EQ(twice.historyDepth, once.historyDepth);
      EXPECT_EQ(twice.ownershipStrength, once.ownershipStrength);
      EXPECT_EQ(twice.toString(), canonical);
      return true;
    } catch (const std::invalid_argument&) {
      return false;
    }
  });
  fuzz("request", {sampleRequest().toString()}, [](const std::string& text) {
    try {
      const policy::QosRequest once = policy::parseQosRequest(text);
      EXPECT_GE(once.minHistoryDepth, 0);
      EXPECT_GE(once.degradedHistoryDepth, -1);
      const std::string canonical = once.toString();
      const policy::QosRequest twice = policy::parseQosRequest(canonical);
      EXPECT_EQ(twice.minHistoryDepth, once.minHistoryDepth);
      EXPECT_EQ(twice.degradedHistoryDepth, once.degradedHistoryDepth);
      EXPECT_EQ(twice.toString(), canonical);
      return true;
    } catch (const std::invalid_argument&) {
      return false;
    }
  });
}

TEST(CodecFuzz, Obligations) {
  const policy::PolicySpec example = policy::parseObligation(R"(
oblig NotifyQoSViolation {
  subject (...)/VideoApplication/qosl_coordinator
  target fps_sensor,jitter_sensor,buffer_sensor,(...)QoSHostManager
  on not (frame_rate = 28(+4)(-3) AND jitter_rate < 1.25)
  do fps_sensor->read(out frame_rate);
     jitter_sensor->read(out jitter_rate);
     (...)/QoSHostManager->notify(frame_rate, jitter_rate)
}
)");
  policy::PolicySpec either = example;
  either.name = "EitherBound";
  either.combinator = policy::PolicySpec::Combinator::kDisjunction;
  policy::PolicySpec nested = example;
  nested.name = "NestedBound";
  nested.customExpr = policy::BoolExpr::notOf(policy::BoolExpr::orOf(
      {policy::BoolExpr::var(1), policy::BoolExpr::notOf(
                                     policy::BoolExpr::var(0))}));
  // An action that starts with a clause keyword stays on the `do` line.
  const std::string clauseLike =
      "oblig ClauseLike {\n  subject x\n  target t\n  on not (a > 1)\n"
      "  do s->read(out a); target t->adjust(b)\n}\n";
  const auto print = [](const std::vector<policy::PolicySpec>& specs) {
    std::string out;
    for (const policy::PolicySpec& spec : specs) out += spec.toString();
    return out;
  };
  fuzz("oblig",
       {example.toString() + either.toString() + nested.toString(),
        clauseLike},
       [&](const std::string& text) {
         std::vector<policy::PolicySpec> once;
         try {
           once = policy::parseObligations(text);
         } catch (const policy::PolicyParseError&) {
           return false;
         }
         const std::string canonical = print(once);
         EXPECT_EQ(print(policy::parseObligations(canonical)), canonical);
         return !once.empty();
       });
}

TEST(CodecFuzz, Contracts) {
  const std::string text =
      "contract VideoOffer {\n  executable VideoApplication\n  offers " +
      sampleOffer().toString() +
      "\n  deadline_attribute frame_rate\n}\ncontract GoldAsk {\n"
      "  application VideoConference\n  role gold\n  requests " +
      sampleRequest().toString() + "\n  enabled true\n}\n";
  fuzz("contract", {text}, [](const std::string& mutant) {
    try {
      return !policy::parseContracts(mutant).empty();
    } catch (const policy::PolicyParseError&) {
      return false;
    }
  });
}

/// The default rule sets, one defrule per seed so that mutations land on
/// each rule's salience and indexes often.
std::vector<std::string> defaultRuleTexts() {
  std::vector<std::string> out;
  for (const std::string& text :
       {manager::defaultHostRules(), manager::defaultDomainRules()}) {
    std::size_t at = text.find("(defrule");
    while (at != std::string::npos) {
      const std::size_t next = text.find("(defrule", at + 1);
      out.push_back(text.substr(at, next - at));
      at = next;
    }
  }
  return out;
}

TEST(CodecFuzz, Rules) {
  fuzz("rules", defaultRuleTexts(), [](const std::string& text) {
    try {
      return !rules::parseRules(text).empty();
    } catch (const rules::RuleParseError&) {
      return false;
    }
  });
}

TEST(CodecFuzz, Dn) {
  fuzz("dn",
       {ldapdir::Dn::parse("cn=fps-policy,ou=policies,o=uwo").toString(),
        ldapdir::Dn::parse("CN=has\\,comma, OU=X\\\\Y,o=y").toString()},
       [](const std::string& text) {
         try {
           const ldapdir::Dn once = ldapdir::Dn::parse(text);
           const std::string canonical = once.toString();
           const ldapdir::Dn twice = ldapdir::Dn::parse(canonical);
           EXPECT_EQ(twice, once) << canonical;
           EXPECT_EQ(twice.toString(), canonical);
           return true;
         } catch (const std::invalid_argument&) {
           return false;
         }
       });
}

TEST(CodecFuzz, Filter) {
  fuzz("filter",
       {ldapdir::Filter::parse("(&(objectClass=qosPolicy)(|(role=gold)"
                               "(priorityWeight>=2))(!(cn=fps*policy)))")
            .toString(),
        ldapdir::Filter::parse("(threshold<=25.5)").toString()},
       [](const std::string& text) {
         try {
           const std::string canonical =
               ldapdir::Filter::parse(text).toString();
           EXPECT_EQ(ldapdir::Filter::parse(canonical).toString(), canonical);
           return true;
         } catch (const ldapdir::FilterParseError&) {
           return false;
         }
       });
}

TEST(CodecFuzz, Ldif) {
  ldapdir::Entry policyEntry(
      ldapdir::Dn::parse("cn=fps-policy,ou=policies,o=uwo"));
  policyEntry.addValue("objectClass", "qosPolicy");
  policyEntry.addValue("cn", "fps-policy");
  policyEntry.addValue("threshold", "25");
  policyEntry.addValue("toleranceAbove", "2");
  ldapdir::Entry roleEntry(ldapdir::Dn::parse("cn=gold,ou=roles,o=uwo"));
  roleEntry.addValue("objectClass", "userRole");
  roleEntry.addValue("priorityWeight", "3");
  fuzz("ldif",
       {ldapdir::toLdif(policyEntry) + "\n" + ldapdir::toLdif(roleEntry)},
       [](const std::string& text) {
         try {
           const auto records = ldapdir::parseLdif(text);
           for (const ldapdir::LdifRecord& record : records) {
             if (record.change != ldapdir::LdifRecord::Change::kAdd) continue;
             const std::string canonical = ldapdir::toLdif(record.entry);
             const auto again = ldapdir::parseLdif(canonical);
             EXPECT_EQ(again.size(), 1u) << canonical;
             if (again.size() == 1) {
               EXPECT_EQ(ldapdir::toLdif(again[0].entry), canonical);
             }
           }
           return !records.empty();
         } catch (const ldapdir::LdifParseError&) {
           return false;
         }
       });
}

/// `v` as the rollup codec writes a double.
std::string exactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(CodecFuzz, Numbers) {
  const auto check = [](const std::string& text) {
    const auto asInt = sim::parseNumber<std::int64_t>(text);
    if (asInt) {
      EXPECT_EQ(sim::parseNumber<std::int64_t>(std::to_string(*asInt)), asInt);
    }
    const auto asU32 = sim::parseNumber<std::uint32_t>(text);
    if (asU32) {
      EXPECT_EQ(sim::parseNumber<std::uint32_t>(std::to_string(*asU32)), asU32);
    }
    const auto asDouble = sim::parseNumber<double>(text);
    if (asDouble) {
      const std::string exact = exactDouble(*asDouble);
      const auto again = sim::parseNumber<double>(exact);
      EXPECT_TRUE(again.has_value()) << exact;
      if (again && !std::isnan(*asDouble)) {
        EXPECT_EQ(*again, *asDouble) << exact;
      }
    }
    return asInt.has_value() || asDouble.has_value();
  };
  // Integers as std::to_string writes them, doubles as the telemetry codec
  // and policy text write them, and a signed tolerance as in "28(+4)(-3)".
  fuzz("number",
       {std::to_string(0), std::to_string(42), std::to_string(-7),
        std::to_string(std::numeric_limits<std::uint64_t>::max()),
        std::to_string(std::numeric_limits<std::int64_t>::min()),
        exactDouble(25.5), exactDouble(-3.25), exactDouble(1e-5),
        exactDouble(2.5e300), exactDouble(HUGE_VAL), exactDouble(-NAN),
        policy::formatNumber(1e-5), policy::formatNumber(1e6), "+4"},
       check);
}

TEST(CodecFuzz, FieldReader) {
  distribution::ContractEvent event;
  event.kind = distribution::ContractEvent::Kind::kRejected;
  event.pid = 6;
  event.contract = "video-gold-request";
  event.detail = "deadline: offered 50ms > requested 36ms; history: offered 1";
  fuzz("fields",
       {event.serialize(), "pid=4;delta=-3",
        "load=0.5;alive=1;slowdown=12.5;freepages=2048"},
       [](const std::string& body) {
         const sim::FieldReader fields(body, "detail");
         bool found = false;
         for (const char* key : {"kind", "pid", "contract", "delta", "load",
                                 "alive", "slowdown", "freepages"}) {
           if (const auto value = fields.get(key)) {
             found = true;
             // Views point into the body, and only the last field spans ';'.
             EXPECT_GE(value->data(), body.data());
             EXPECT_LE(value->data() + value->size(),
                       body.data() + body.size());
             EXPECT_EQ(value->find(';'), std::string_view::npos) << key;
             (void)fields.number<std::int64_t>(key);
             (void)fields.number<double>(key);
           }
         }
         return found;
       });
}

}  // namespace
}  // namespace softqos
