// The LDAP-style repository substrate: DNs, entries, filters, schema,
// directory operations and LDIF interchange.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <random>

#include "ldapdir/directory.hpp"
#include "ldapdir/ldif.hpp"

namespace softqos::ldapdir {
namespace {

// ---- DN ----

TEST(Dn, ParseAndToString) {
  const Dn dn = Dn::parse("cn=fps-policy, ou=Policies, o=uwo");
  EXPECT_EQ(dn.depth(), 3u);
  EXPECT_EQ(dn.leaf().attr, "cn");
  EXPECT_EQ(dn.leaf().value, "fps-policy");
  EXPECT_EQ(dn.toString(), "cn=fps-policy,ou=Policies,o=uwo");
}

TEST(Dn, AttributeTypeIsCaseInsensitive) {
  EXPECT_EQ(Dn::parse("CN=x,O=y"), Dn::parse("cn=x,o=y"));
}

TEST(Dn, ValueComparesCaseInsensitively) {
  EXPECT_EQ(Dn::parse("cn=Video,o=uwo"), Dn::parse("cn=video,o=uwo"));
}

TEST(Dn, EscapedCommaInValue) {
  const Dn dn = Dn::parse("cn=a\\,b,o=uwo");
  EXPECT_EQ(dn.leaf().value, "a,b");
  EXPECT_EQ(Dn::parse(dn.toString()), dn);
}

TEST(Dn, ParentAndChild) {
  const Dn dn = Dn::parse("cn=x,ou=p,o=uwo");
  EXPECT_EQ(dn.parent(), Dn::parse("ou=p,o=uwo"));
  EXPECT_EQ(Dn::parse("ou=p,o=uwo").child("cn", "x"), dn);
  EXPECT_TRUE(Dn::parse("o=uwo").parent().empty());
}

TEST(Dn, DescendantRelation) {
  const Dn root = Dn::parse("o=uwo");
  const Dn mid = Dn::parse("ou=p,o=uwo");
  const Dn leaf = Dn::parse("cn=x,ou=p,o=uwo");
  EXPECT_TRUE(leaf.isDescendantOf(root));
  EXPECT_TRUE(leaf.isDescendantOf(mid));
  EXPECT_TRUE(mid.isDescendantOf(root));
  EXPECT_FALSE(root.isDescendantOf(leaf));
  EXPECT_FALSE(leaf.isDescendantOf(leaf)) << "descendant is strict";
  EXPECT_FALSE(Dn::parse("cn=x,ou=q,o=uwo").isDescendantOf(mid));
}

TEST(Dn, MalformedInputThrows) {
  EXPECT_THROW(Dn::parse("novalue"), std::invalid_argument);
  EXPECT_THROW(Dn::parse("=x,o=y"), std::invalid_argument);
  EXPECT_THROW(Dn::parse("cn=,o=y"), std::invalid_argument);
}

TEST(Dn, EmptyStringParsesToEmptyDn) {
  EXPECT_TRUE(Dn::parse("").empty());
  EXPECT_TRUE(Dn::parse("  ").empty());
}

// ---- Entry ----

TEST(EntryTest, MultiValuedAttributesDeduplicate) {
  Entry e(Dn::parse("cn=x,o=uwo"));
  e.addValue("ref", "a");
  e.addValue("ref", "b");
  e.addValue("ref", "a");
  ASSERT_NE(e.values("ref"), nullptr);
  EXPECT_EQ(e.values("ref")->size(), 2u);
}

TEST(EntryTest, AttributeNamesAreCaseInsensitive) {
  Entry e(Dn::parse("cn=x,o=uwo"));
  e.addValue("ObjectClass", "qosPolicy");
  EXPECT_TRUE(e.hasAttribute("objectclass"));
  EXPECT_TRUE(e.hasObjectClass("QOSPOLICY"));
}

TEST(EntryTest, RemoveValueAndAttribute) {
  Entry e(Dn::parse("cn=x,o=uwo"));
  e.addValue("a", "1");
  e.addValue("a", "2");
  EXPECT_TRUE(e.removeValue("a", "1"));
  EXPECT_FALSE(e.removeValue("a", "1"));
  EXPECT_TRUE(e.hasAttribute("a"));
  EXPECT_TRUE(e.removeValue("a", "2"));
  EXPECT_FALSE(e.hasAttribute("a")) << "last value removes the attribute";
}

TEST(EntryTest, FirstValueAndSetValues) {
  Entry e(Dn::parse("cn=x,o=uwo"));
  EXPECT_EQ(e.firstValue("a"), std::nullopt);
  e.setValues("a", {"1", "2"});
  EXPECT_EQ(e.firstValue("a"), "1");
  e.setValues("a", {});
  EXPECT_FALSE(e.hasAttribute("a"));
}

// ---- Filter ----

struct FilterCase {
  const char* filter;
  bool expected;
};

// Names the case by its text. Without a printer gtest dumps the struct's raw
// bytes, pointer and padding included, into the ctest name, which then
// differs from one build to the next.
void PrintTo(const FilterCase& c, std::ostream* os) {
  *os << c.filter << (c.expected ? " matches" : " does not match");
}

class FilterMatch : public ::testing::TestWithParam<FilterCase> {
 protected:
  Entry entry = [] {
    Entry e(Dn::parse("cn=p1,ou=policies,o=uwo"));
    e.addValue("objectClass", "qosPolicy");
    e.addValue("cn", "p1");
    e.addValue("executableRef", "VideoApplication");
    e.addValue("userRole", "gold");
    e.addValue("threshold", "25");
    e.addValue("enabled", "TRUE");
    return e;
  }();
};

TEST_P(FilterMatch, Evaluates) {
  const FilterCase& c = GetParam();
  EXPECT_EQ(Filter::parse(c.filter).matches(entry), c.expected) << c.filter;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FilterMatch,
    ::testing::Values(
        FilterCase{"(cn=p1)", true},
        FilterCase{"(cn=P1)", true},  // values case-insensitive
        FilterCase{"(cn=p2)", false},
        FilterCase{"(cn=*)", true},
        FilterCase{"(missing=*)", false},
        FilterCase{"(threshold>=25)", true},
        FilterCase{"(threshold>=26)", false},
        FilterCase{"(threshold<=30)", true},
        FilterCase{"(cn=p*)", true},
        FilterCase{"(executableRef=*Application)", true},
        FilterCase{"(executableRef=Video*App*)", true},
        FilterCase{"(executableRef=*xyz*)", false},
        FilterCase{"(&(objectClass=qosPolicy)(userRole=gold))", true},
        FilterCase{"(&(objectClass=qosPolicy)(userRole=silver))", false},
        FilterCase{"(|(userRole=silver)(userRole=gold))", true},
        FilterCase{"(!(enabled=FALSE))", true},
        FilterCase{"(&(cn=p1)(|(userRole=gold)(userRole=x))(!(cn=zz)))", true}));

TEST(FilterErrors, MalformedFiltersThrow) {
  EXPECT_THROW(Filter::parse("cn=x"), FilterParseError);
  EXPECT_THROW(Filter::parse("(cn=x"), FilterParseError);
  EXPECT_THROW(Filter::parse("(&)"), FilterParseError);
  EXPECT_THROW(Filter::parse("(=x)"), FilterParseError);
  EXPECT_THROW(Filter::parse("(cn=x))"), FilterParseError);
}

TEST(FilterText, RoundTripsThroughToString) {
  const char* text = "(&(objectclass=qosPolicy)(|(a=1)(b=2)))";
  const Filter f = Filter::parse(text);
  const Filter g = Filter::parse(f.toString());
  Entry e(Dn::parse("cn=x,o=uwo"));
  e.addValue("objectClass", "qosPolicy");
  e.addValue("a", "1");
  EXPECT_TRUE(f.matches(e));
  EXPECT_TRUE(g.matches(e));
}

TEST(FilterText, MatchAllMatchesAnything) {
  Entry e(Dn::parse("cn=x,o=uwo"));
  EXPECT_TRUE(Filter::matchAll().matches(e));
}

// ---- Schema ----

TEST(SchemaTest, ValidEntryPasses) {
  const Schema s = informationModelSchema();
  Entry e(Dn::parse("cn=s1,ou=sensors,o=uwo"));
  e.addValue("objectClass", "qosSensor");
  e.addValue("cn", "s1");
  e.addValue("monitorsAttribute", "frame_rate");
  EXPECT_TRUE(s.validate(e).empty());
}

TEST(SchemaTest, MissingMustIsReported) {
  const Schema s = informationModelSchema();
  Entry e(Dn::parse("cn=s1,ou=sensors,o=uwo"));
  e.addValue("objectClass", "qosSensor");
  e.addValue("cn", "s1");
  const auto problems = s.validate(e);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("monitorsattribute"), std::string::npos);
}

TEST(SchemaTest, UnknownClassIsReported) {
  const Schema s = informationModelSchema();
  Entry e(Dn::parse("cn=x,o=uwo"));
  e.addValue("objectClass", "martian");
  EXPECT_FALSE(s.validate(e).empty());
}

TEST(SchemaTest, AttributeOutsideMustMayIsReported) {
  const Schema s = informationModelSchema();
  Entry e(Dn::parse("cn=r,ou=roles,o=uwo"));
  e.addValue("objectClass", "qosUserRole");
  e.addValue("cn", "r");
  e.addValue("shoeSize", "44");
  const auto problems = s.validate(e);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("shoesize"), std::string::npos);
}

TEST(SchemaTest, ParentClassAttributesAreInherited) {
  Schema s;
  s.define({"base", "", {"id"}, {}});
  s.define({"child", "base", {"name"}, {}});
  Entry e(Dn::parse("cn=x,o=y"));
  e.addValue("objectClass", "child");
  e.addValue("id", "1");
  e.addValue("name", "n");
  EXPECT_TRUE(s.validate(e).empty());
}

TEST(SchemaTest, NoObjectClassIsAProblem) {
  const Schema s = informationModelSchema();
  Entry e(Dn::parse("cn=x,o=uwo"));
  EXPECT_FALSE(s.validate(e).empty());
}

// ---- Directory ----

struct DirFixture : ::testing::Test {
  Directory dir;  // suffix o=uwo, no schema enforcement

  Entry make(const std::string& dn) {
    Entry e(Dn::parse(dn));
    e.addValue("objectClass", "top");
    return e;
  }

  void SetUp() override {
    Entry root(Dn::parse("o=uwo"));
    root.addValue("objectClass", "organization");
    root.addValue("o", "uwo");
    ASSERT_EQ(dir.add(root), LdapResult::kSuccess);
  }
};

TEST_F(DirFixture, AddLookupRemove) {
  EXPECT_EQ(dir.add(make("ou=p,o=uwo")), LdapResult::kSuccess);
  EXPECT_NE(dir.lookup(Dn::parse("ou=p,o=uwo")), nullptr);
  EXPECT_EQ(dir.remove(Dn::parse("ou=p,o=uwo")), LdapResult::kSuccess);
  EXPECT_EQ(dir.lookup(Dn::parse("ou=p,o=uwo")), nullptr);
}

TEST_F(DirFixture, DuplicateAddFails) {
  dir.add(make("ou=p,o=uwo"));
  EXPECT_EQ(dir.add(make("ou=p,o=uwo")), LdapResult::kEntryAlreadyExists);
}

TEST_F(DirFixture, AddWithoutParentFails) {
  EXPECT_EQ(dir.add(make("cn=x,ou=nope,o=uwo")), LdapResult::kNoSuchParent);
}

TEST_F(DirFixture, RemoveNonLeafFails) {
  dir.add(make("ou=p,o=uwo"));
  dir.add(make("cn=x,ou=p,o=uwo"));
  EXPECT_EQ(dir.remove(Dn::parse("ou=p,o=uwo")),
            LdapResult::kNotAllowedOnNonLeaf);
}

TEST_F(DirFixture, RemoveMissingFails) {
  EXPECT_EQ(dir.remove(Dn::parse("cn=zz,o=uwo")), LdapResult::kNoSuchObject);
}

TEST_F(DirFixture, SearchScopes) {
  dir.add(make("ou=p,o=uwo"));
  dir.add(make("cn=a,ou=p,o=uwo"));
  dir.add(make("cn=b,ou=p,o=uwo"));
  const Filter all = Filter::matchAll();
  EXPECT_EQ(dir.search(Dn::parse("ou=p,o=uwo"), SearchScope::kBase, all).size(),
            1u);
  EXPECT_EQ(
      dir.search(Dn::parse("ou=p,o=uwo"), SearchScope::kOneLevel, all).size(),
      2u);
  EXPECT_EQ(
      dir.search(Dn::parse("ou=p,o=uwo"), SearchScope::kSubtree, all).size(),
      3u);
  EXPECT_EQ(dir.search(Dn::parse("o=uwo"), SearchScope::kSubtree, all).size(),
            4u);
}

TEST_F(DirFixture, SearchAppliesFilter) {
  dir.add(make("ou=p,o=uwo"));
  Entry a = make("cn=a,ou=p,o=uwo");
  a.addValue("kind", "x");
  dir.add(a);
  Entry b = make("cn=b,ou=p,o=uwo");
  b.addValue("kind", "y");
  dir.add(b);
  const auto hits = dir.search(Dn::parse("o=uwo"), SearchScope::kSubtree,
                               Filter::parse("(kind=y)"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->dn().leaf().value, "b");
}

TEST_F(DirFixture, ModifyAddReplaceDelete) {
  dir.add(make("ou=p,o=uwo"));
  Modification add{Modification::Op::kAdd, "color", {"red"}};
  EXPECT_EQ(dir.modify(Dn::parse("ou=p,o=uwo"), {add}), LdapResult::kSuccess);
  EXPECT_EQ(dir.lookup(Dn::parse("ou=p,o=uwo"))->firstValue("color"), "red");

  Modification rep{Modification::Op::kReplace, "color", {"blue", "green"}};
  dir.modify(Dn::parse("ou=p,o=uwo"), {rep});
  EXPECT_EQ(dir.lookup(Dn::parse("ou=p,o=uwo"))->values("color")->size(), 2u);

  Modification del{Modification::Op::kDelete, "color", {}};
  dir.modify(Dn::parse("ou=p,o=uwo"), {del});
  EXPECT_FALSE(dir.lookup(Dn::parse("ou=p,o=uwo"))->hasAttribute("color"));
}

TEST_F(DirFixture, ModifyMissingEntryFails) {
  EXPECT_EQ(dir.modify(Dn::parse("cn=no,o=uwo"), {}), LdapResult::kNoSuchObject);
}

TEST_F(DirFixture, ChangeListenersFireOnMutations) {
  std::vector<std::string> changed;
  dir.addChangeListener([&](const Dn& dn) { changed.push_back(dn.toString()); });
  dir.add(make("ou=p,o=uwo"));
  dir.modify(Dn::parse("ou=p,o=uwo"),
             {Modification{Modification::Op::kAdd, "a", {"1"}}});
  dir.remove(Dn::parse("ou=p,o=uwo"));
  EXPECT_EQ(changed.size(), 3u);
}

TEST_F(DirFixture, RemovingTheLastChildLetsTheParentGo) {
  dir.add(make("ou=p,o=uwo"));
  dir.add(make("cn=a,ou=p,o=uwo"));
  dir.add(make("cn=b,ou=p,o=uwo"));
  EXPECT_EQ(dir.remove(Dn::parse("OU=P,O=UWO")),
            LdapResult::kNotAllowedOnNonLeaf);
  EXPECT_EQ(dir.remove(Dn::parse("CN=A,ou=P,o=uwo")), LdapResult::kSuccess);
  EXPECT_EQ(dir.remove(Dn::parse("ou=p,o=UWO")),
            LdapResult::kNotAllowedOnNonLeaf);
  EXPECT_EQ(dir.remove(Dn::parse("cn=b,ou=p,o=uwo")), LdapResult::kSuccess);
  EXPECT_EQ(dir.remove(Dn::parse("Ou=p,o=uwo")), LdapResult::kSuccess);
  EXPECT_EQ(dir.size(), 1u);
}

// The one-level index against a brute-force scan, over random adds and
// removes of mixed-case DNs, escaped commas, and siblings where one name is
// another followed by a character below ',' (so sorting by leaf alone would
// misorder them).
TEST_F(DirFixture, OneLevelIndexMatchesAFullScan) {
  std::mt19937 rng(20001017);
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto recase = [&](std::string text) {
    for (char& c : text) {
      if (pick(2) == 0) c = static_cast<char>(std::toupper(c));
    }
    return text;
  };
  const std::vector<std::string> names = {"a",  "A",   "a+b", "a b", "ab",
                                          "a,", "a,b", "a-b", "b",   "B b"};
  const Filter all = Filter::matchAll();
  const auto everything = [&] {
    return dir.search(Dn(), SearchScope::kSubtree, all);
  };

  for (int op = 0; op < 800; ++op) {
    const std::vector<const Entry*> entries = everything();
    const Dn& target = entries[pick(entries.size())]->dn();
    const Dn spelled = Dn::parse(recase(target.toString()));
    if (pick(2) == 0) {
      const LdapResult r =
          dir.add(make(spelled.child("cn", recase(names[pick(names.size())]))
                           .toString()));
      ASSERT_TRUE(r == LdapResult::kSuccess ||
                  r == LdapResult::kEntryAlreadyExists);
    } else if (!(target == Dn::parse("o=uwo"))) {
      const bool nonLeaf =
          std::any_of(entries.begin(), entries.end(), [&](const Entry* e) {
            return e->dn().isDescendantOf(target);
          });
      ASSERT_EQ(dir.remove(spelled), nonLeaf ? LdapResult::kNotAllowedOnNonLeaf
                                             : LdapResult::kSuccess)
          << spelled.toString();
    }

    const std::vector<const Entry*> now = everything();
    ASSERT_EQ(now.size(), dir.size());
    std::vector<Dn> parents;
    for (const Entry* e : now) parents.push_back(e->dn().parent());
    for (const Entry* base : now) {
      std::vector<const Entry*> expected;
      for (std::size_t i = 0; i < now.size(); ++i) {
        if (parents[i] == base->dn()) expected.push_back(now[i]);
      }
      const Dn baseSpelled = Dn::parse(recase(base->dn().toString()));
      ASSERT_EQ(dir.search(baseSpelled, SearchScope::kOneLevel, all), expected)
          << "op " << op << " base " << baseSpelled.toString();
    }
  }
}

TEST(DirectoryIndex, ParentlessSuffixStillGuardsItsAncestors) {
  // The suffix may be added without its parent, so an ancestor can have a
  // descendant but no child.
  Directory dir(Dn::parse("dc=a,dc=b,dc=c"));
  Entry suffix(Dn::parse("dc=a,dc=b,dc=c"));
  suffix.addValue("objectClass", "top");
  ASSERT_EQ(dir.add(suffix), LdapResult::kSuccess);
  Entry top(Dn::parse("dc=c"));
  top.addValue("objectClass", "top");
  ASSERT_EQ(dir.add(top), LdapResult::kSuccess);
  EXPECT_EQ(dir.remove(Dn::parse("DC=C")), LdapResult::kNotAllowedOnNonLeaf);
  EXPECT_EQ(dir.remove(Dn::parse("dc=a,dc=b,dc=c")), LdapResult::kSuccess);
  EXPECT_EQ(dir.remove(Dn::parse("dc=c")), LdapResult::kSuccess);
}

TEST(DirectorySchema, EnforcementRejectsInvalidEntries) {
  Directory dir(Dn::parse("o=uwo"), informationModelSchema(), true);
  Entry root(Dn::parse("o=uwo"));
  root.addValue("objectClass", "organization");
  root.addValue("o", "uwo");
  EXPECT_EQ(dir.add(root), LdapResult::kSuccess);
  Entry bad(Dn::parse("cn=x,o=uwo"));
  bad.addValue("objectClass", "qosSensor");  // missing cn + monitorsAttribute
  EXPECT_EQ(dir.add(bad), LdapResult::kSchemaViolation);
  EXPECT_FALSE(dir.lastProblems().empty());
}

// ---- LDIF ----

TEST(Ldif, ParseAddRecord) {
  const auto records = parseLdif(
      "dn: cn=x,o=uwo\n"
      "objectClass: qosPolicy\n"
      "cn: x\n"
      "conditionRef: c1\n"
      "conditionRef: c2\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].change, LdifRecord::Change::kAdd);
  EXPECT_EQ(records[0].entry.values("conditionref")->size(), 2u);
}

TEST(Ldif, ParseMultipleRecordsAndComments) {
  const auto records = parseLdif(
      "# comment\n"
      "dn: ou=a,o=uwo\n"
      "objectClass: container\n"
      "\n"
      "dn: ou=b,o=uwo\n"
      "changetype: delete\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].change, LdifRecord::Change::kDelete);
}

TEST(Ldif, FoldedContinuationLines) {
  const auto records = parseLdif(
      "dn: cn=x,o=uwo\n"
      "description: part one\n"
      " and part two\n");
  EXPECT_EQ(records[0].entry.firstValue("description"),
            "part oneand part two");
}

TEST(Ldif, ParseModifyRecord) {
  const auto records = parseLdif(
      "dn: cn=x,o=uwo\n"
      "changetype: modify\n"
      "replace: enabled\n"
      "enabled: FALSE\n"
      "-\n"
      "add: userRole\n"
      "userRole: gold\n");
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].mods.size(), 2u);
  EXPECT_EQ(records[0].mods[0].op, Modification::Op::kReplace);
  EXPECT_EQ(records[0].mods[1].op, Modification::Op::kAdd);
}

TEST(Ldif, MalformedInputThrows) {
  EXPECT_THROW(parseLdif("objectClass: x\n"), LdifParseError);
  EXPECT_THROW(parseLdif("dn: cn=x,o=u\nchangetype: rename\n"), LdifParseError);
  EXPECT_THROW(parseLdif("dn: cn=x,o=u\nnocolonhere\n"), LdifParseError);
}

TEST(Ldif, DirectoryRoundTrip) {
  Directory dir;
  Entry root(Dn::parse("o=uwo"));
  root.addValue("objectClass", "organization");
  root.addValue("o", "uwo");
  dir.add(root);
  Entry child(Dn::parse("ou=p,o=uwo"));
  child.addValue("objectClass", "container");
  child.addValue("ou", "p");
  dir.add(child);

  const std::string ldif = toLdif(dir);
  Directory dir2;
  const LdifApplyStats stats = applyLdif(dir2, ldif);
  EXPECT_EQ(stats.added, 2u);
  EXPECT_TRUE(stats.failures.empty());
  EXPECT_NE(dir2.lookup(Dn::parse("ou=p,o=uwo")), nullptr);
}

TEST(Ldif, ApplyCollectsFailures) {
  Directory dir;
  const LdifApplyStats stats =
      applyLdif(dir, "dn: cn=x,ou=nothere,o=uwo\nobjectClass: top\n");
  EXPECT_EQ(stats.added, 0u);
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_NE(stats.failures[0].find("noSuchParent"), std::string::npos);
}

TEST(Ldif, SerializeLeadsWithObjectClass) {
  Entry e(Dn::parse("cn=x,o=uwo"));
  e.addValue("zattr", "v");
  e.addValue("objectClass", "top");
  const std::string text = toLdif(e);
  EXPECT_LT(text.find("objectClass: top"), text.find("zattr: v"));

  // An attribute named changetype stays an attribute of an add record.
  Entry odd(Dn::parse("cn=x,o=uwo"));
  odd.addValue("changetype", "delete");
  odd.addValue("cn", "x");
  const auto records = parseLdif(toLdif(odd));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].change, LdifRecord::Change::kAdd);
  EXPECT_EQ(records[0].entry.dn(), odd.dn());
  EXPECT_EQ(records[0].entry.attributes(), odd.attributes());
}

}  // namespace
}  // namespace softqos::ldapdir
