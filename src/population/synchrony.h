// Synchrony metrics for a population snapshot.
//
// Quantifies how far a population has drifted from synchrony — the decay
// these metrics show over experiment time is exactly the asynchronous
// variability the deconvolution removes in silico.
#pragma once

#include <optional>
#include <vector>

#include "numerics/vector_ops.h"
#include "population/population_simulator.h"

namespace cellsync {

/// Kuramoto-style circular order parameter r = |mean(exp(2 pi i phi))|.
/// r = 1 for a perfectly synchronized population, -> 0 for phases spread
/// uniformly. Throws std::invalid_argument on an empty snapshot.
double phase_order_parameter(const std::vector<Snapshot_entry>& snapshot);

/// Normalized Shannon entropy of the phase histogram (`bins` bins):
/// 0 when all mass is in one bin, 1 for the uniform distribution.
/// Throws std::invalid_argument on an empty snapshot or zero bins.
double phase_entropy(const std::vector<Snapshot_entry>& snapshot, std::size_t bins = 50);

// -- profile-level variants -------------------------------------------------
//
// The experiment runner and `cellsync_deconvolve report` score
// reconstructed single-cell profiles f(phi) with the same two metrics:
// the profile, clamped at zero and normalized to unit mass, is treated
// as the phase density of the expression it represents. A sharply
// cell-cycle-regulated gene scores r -> 1 / entropy -> 0; a constitutive
// (flat) gene scores r -> 0 / entropy -> 1.

/// Order parameter r = |sum_b p_b exp(2 pi i phi_b)| of a sampled profile
/// (values at `phi`, negatives clamped to 0, normalized to probabilities).
/// Throws std::invalid_argument on empty/mismatched inputs or when the
/// clamped profile has no positive mass.
double profile_order_parameter(const Vector& phi, const Vector& values);

/// cos and sin of 2 pi phi on one phase grid: the order parameter of
/// every profile sampled on that grid without a sin and cos per sample.
class Phase_table {
  public:
    Phase_table() = default;  ///< the empty grid
    explicit Phase_table(const Vector& phi);

    std::size_t size() const { return cos_.size(); }

    /// profile_order_parameter(phi, values) bit for bit, or nullopt when
    /// the clamped profile has no positive mass. Throws
    /// std::invalid_argument when `values` does not match the grid or has
    /// fewer than 2 samples.
    std::optional<double> order_parameter(const Vector& values) const;

  private:
    Vector cos_;
    Vector sin_;
};

/// Normalized Shannon entropy of a sampled profile's probability vector:
/// 0 when all mass is at one sample, 1 for a flat profile. Same
/// preconditions as profile_order_parameter (needs >= 2 samples).
double profile_entropy(const Vector& values);

/// The synchrony scores of one sampled profile.
struct Profile_scores {
    double order_parameter = 0.0;  ///< 1 = sharply phase-localized expression
    double entropy = 0.0;          ///< 1 = flat (constitutive) expression
    double peak_phi = 0.0;         ///< phase of the first maximum
};

/// Order parameter, entropy and peak phase of a profile sampled at `phi`.
/// A closed grid (more than 2 points from phi = 0 to phi = 1) loses its
/// phi = 1 sample first: 0 and 1 are the same circular angle and must not
/// be counted twice. So the 201-point output grid of `run` and `stream`
/// scores like its first 200 points, and `cellsync_deconvolve report`
/// reproduces from a saved profile CSV the scores `run` printed. Throws
/// std::invalid_argument as profile_order_parameter does, in particular
/// when the clamped profile has no positive mass.
Profile_scores score_profile(const Vector& phi, const Vector& values);

/// score_profile for every profile sampled on one phase grid: the grid's
/// open part and its Phase_table are worked out once, so a profile costs
/// no sin or cos. The experiment runner scores each gene with one.
class Profile_scorer {
  public:
    explicit Profile_scorer(const Vector& phi);

    /// score_profile(phi, values) bit for bit; throws as it does.
    Profile_scores operator()(const Vector& values) const;

  private:
    std::size_t size_ = 0;  ///< samples per profile, closing phi = 1 included
    Vector open_phi_;
    Phase_table phases_;  ///< cos and sin of open_phi_
};

}  // namespace cellsync
