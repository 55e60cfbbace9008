//===- perfbench/src/ClusterKast.cpp - The paper's offline analysis -------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// cluster_kast: the paper's own analysis on about 500 traces in its
// corpus proportions (A:B:C:D = 10:4:4:4 bases, 22 copies each): strace
// text -> Pipeline::convertAll -> KAST kernel Gram with PSD repair ->
// single-linkage dendrogram -> 3-cluster cut. It is the only workload
// through the KAST kernel itself (suffix automata, matcher, kernel
// matrix) and through linalg and ml; without it those layers go
// unmeasured.
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include "core/KastKernel.h"
#include "core/KernelMatrix.h"
#include "linalg/Eigen.h"
#include "ml/ClusterMetrics.h"
#include "ml/HierarchicalClustering.h"
#include "trace/StraceAdapter.h"

using namespace kast;

namespace kbench {

namespace {

constexpr size_t CopiesPerBase = 21;
// A set-up takes some 60 ms; its median over many keeps one slow
// repetition on a shared host from moving setup_s.
constexpr size_t SetupCount = 25;
constexpr size_t Clusters = 3;
constexpr size_t GramThreads = 4;

struct Analysis {
  Matrix Gram;
  std::vector<size_t> Cut;
  std::vector<WeightedString> Strings;
  bool Parsed = true;
};

/// strace texts -> traces. A text the adapter rejects is a failure.
std::vector<Trace> parseAll(const std::vector<TextItem> &Texts, bool &Ok) {
  std::vector<Trace> Traces;
  Traces.reserve(Texts.size());
  for (const TextItem &T : Texts) {
    Expected<Trace> Parsed = [&] {
      ScopedSpan S("trace.parse");
      return parseStrace(T.Text, T.Name);
    }();
    Ok = Ok && Parsed.hasValue();
    Traces.push_back(Parsed ? Parsed.take() : Trace(T.Name));
  }
  return Traces;
}

/// The untraced analysis: one call per library entry point.
Analysis analyze(const std::vector<TextItem> &Texts) {
  Analysis A;
  Pipeline P = Pipeline::withBytes();
  A.Strings = P.convertAll(parseAll(Texts, A.Parsed));
  KernelMatrixOptions Options;
  Options.RepairPsd = true;
  Options.Threads = GramThreads;
  A.Gram = computeKernelMatrix(KastSpectrumKernel({.CutWeight = 2}), A.Strings,
                               Options);
  A.Cut = clusterHierarchical(similarityToDistance(A.Gram), Linkage::Single)
              .cutToClusters(Clusters);
  return A;
}

/// The traced analysis: the stages analyze() composes, each in a span.
Analysis analyzeTraced(const std::vector<TextItem> &Texts, Outcome &Out) {
  Analysis A;
  Pipeline P = Pipeline::withBytes();
  FrontEnd FE(P);
  for (const TextItem &T : Texts) {
    std::optional<WeightedString> W = FE.convert(T.Text, T.Name);
    A.Parsed = A.Parsed && W.has_value();
    A.Strings.push_back(W ? std::move(*W) : WeightedString(P.table()));
  }
  KernelMatrixOptions Options;
  Options.Threads = GramThreads;
  Matrix Raw;
  Out.report("core.gram_ms", 1e3 * timed([&] {
    ScopedSpan S("core.gram");
    Raw = computeKernelMatrix(KastSpectrumKernel({.CutWeight = 2}), A.Strings,
                              Options);
  }), "ms");
  Out.report("linalg.psd_repair_ms", 1e3 * timed([&] {
    ScopedSpan S("linalg.psd_repair");
    A.Gram = projectToPsdIfNeeded(Raw);
  }), "ms");
  Out.report("ml.linkage_ms", 1e3 * timed([&] {
    ScopedSpan S("ml.linkage");
    A.Cut = clusterHierarchical(similarityToDistance(A.Gram), Linkage::Single)
                .cutToClusters(Clusters);
  }), "ms");
  return A;
}

bool sameStrings(const std::vector<WeightedString> &A,
                 const std::vector<WeightedString> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].literalIds() != B[I].literalIds() ||
        A[I].weights() != B[I].weights())
      return false;
  return true;
}

bool sameMatrix(const Matrix &A, const Matrix &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols())
    return false;
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      if (A.at(I, J) != B.at(I, J))
        return false;
  return true;
}

} // namespace

Outcome runClusterKast(const RunConfig &C) {
  Outcome Out;
  CorpusOptions Shape;
  Shape.CopiesPerBase = CopiesPerBase;
  Shape.Seed = C.Seed;
  std::vector<TextItem> Texts;
  std::vector<std::string> Labels;
  size_t BadRender = 0;
  for (const LabeledTrace &L : generateCorpus(Shape)) {
    std::string Text = renderStrace(L.T);
    BadRender += !roundTrips(L.T, Text);
    Texts.push_back({L.T.name(), L.Label, std::move(Text)});
    Labels.push_back(L.Label);
  }
  Out.checkMany(Texts.size(), BadRender, "strace round trip of corpus inputs");

  // Set-up: strace texts -> weighted strings, the work every analysis
  // starts with.
  std::vector<double> SetupS;
  for (size_t I = 0; I < SetupCount; ++I) {
    bool Ok = true;
    Pipeline P = Pipeline::withBytes();
    SetupS.push_back(timed([&] { (void)P.convertAll(parseAll(Texts, Ok)); }));
    Out.check(Ok, "corpus strace parse");
  }

  // The measured phase: whole analyses, back to back, at least one.
  std::vector<double> AnalysisMs;
  Analysis Last;
  const double End = now() + C.Seconds;
  do {
    AnalysisMs.push_back(1e3 * timed([&] { Last = analyze(Texts); }));
    Out.check(Last.Parsed, "corpus strace parse");
  } while (now() < End);

  // The repair-off normalized Gram must be symmetric with a unit
  // diagonal; the repaired one must stay symmetric.
  {
    KernelMatrixOptions Options;
    Options.Threads = GramThreads;
    Matrix Raw = computeKernelMatrix(KastSpectrumKernel({.CutWeight = 2}),
                                     Last.Strings, Options);
    bool UnitDiagonal = true;
    for (size_t I = 0; I < Raw.rows(); ++I)
      UnitDiagonal = UnitDiagonal && Raw.at(I, I) == 1.0;
    Out.check(UnitDiagonal, "normalized Gram has a unit diagonal");
    Out.check(Raw.isSymmetric(0.0), "normalized Gram is symmetric");
    Out.check(Last.Gram.isSymmetric(0.0), "repaired Gram is symmetric");
  }

  const Summary S = summarize(AnalysisMs);
  const double Purity = purity(Last.Cut, Labels);
  Out.report("setup_s", median(SetupS), "s");
  Out.report("latency_p50_ms", S.P50, "ms");
  Out.report("analyze_s", S.P50 / 1e3, "s");
  Out.report("throughput_per_s",
             1e3 * static_cast<double>(Texts.size()) / S.P50, "1/s");
  Out.report("analyses", static_cast<double>(AnalysisMs.size()), "count");
  Out.report("cluster_ari", adjustedRandIndex(Last.Cut, Labels), "ratio");
  Out.report("label_accuracy", Purity, "frac");
  Out.report("corpus_size", static_cast<double>(Texts.size()), "count");

  if (C.Traced) {
    // The traced run calls the stages and must land on the same strings,
    // the same repaired Gram and the same cut.
    Analysis Traced;
    const double TracedMs =
        1e3 * timed([&] { Traced = analyzeTraced(Texts, Out); });
    Out.check(Traced.Parsed && sameStrings(Traced.Strings, Last.Strings),
              "traced stages == Pipeline::convertAll");
    Out.check(sameMatrix(Traced.Gram, Last.Gram),
              "repair-off Gram + projectToPsdIfNeeded == RepairPsd Gram");
    Out.check(Traced.Cut == Last.Cut, "traced cut == untraced cut");
    Out.report("tracing.overhead_pct", 100.0 * (TracedMs - S.P50) / S.P50,
               "%");
  }
  return Out;
}

} // namespace kbench
