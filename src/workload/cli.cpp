#include "workload/cli.hpp"

#include <charconv>
#include <cmath>
#include <span>
#include <string_view>

namespace aria::workload {

namespace {

/// Decimal unsigned integer: digits only. A sign, a blank or a value `out`
/// cannot hold is an error (strtoull would silently wrap "-1" to 2^64 - 1).
template <class UInt>
bool parse_uint(std::string_view text, UInt& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  return ec == std::errc{} && end == last;
}

/// Finite decimal number. nan, inf and trailing junk are errors (strtod
/// accepts the first two, which then reach Duration conversions as UB).
bool parse_real(std::string_view text, double& out) {
  const char* last = text.data() + text.size();
  double v = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || end != last || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// The comma-separated fields of `text` ("" yields one empty field).
std::vector<std::string_view> split_commas(std::string_view text) {
  std::vector<std::string_view> fields;
  while (true) {
    const auto comma = text.find(',');
    fields.push_back(text.substr(0, comma));
    if (comma == std::string_view::npos) return fields;
    text.remove_prefix(comma + 1);
  }
}

/// Exactly out.size() comma-separated finite numbers into `out`.
bool parse_reals(std::string_view text, std::span<double> out) {
  const auto fields = split_commas(text);
  if (fields.size() != out.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!parse_real(fields[i], out[i])) return false;
  }
  return true;
}

template <class UInt>
bool parse_positive(std::string_view text, UInt& out) {
  return parse_uint(text, out) && out > 0;
}

bool parse_probability(std::string_view text, double& out) {
  double v = 0.0;
  if (!parse_real(text, v) || v < 0.0 || v > 1.0) return false;
  out = v;
  return true;
}

/// "START,DURATION" in minutes, both positive.
bool parse_partition(std::string_view text, std::pair<double, double>& out) {
  double v[2]{};
  if (!parse_reals(text, v) || v[0] < 0.0 || v[1] <= 0.0) return false;
  out = {v[0], v[1]};
  return true;
}

/// "TARGET,MEAN_SECONDS": a node count >= 1 and a positive mean interval.
bool parse_expand(std::string_view text,
                  std::pair<std::size_t, Duration>& out) {
  const auto fields = split_commas(text);
  std::size_t target = 0;
  double mean = 0.0;
  if (fields.size() != 2 || !parse_positive(fields[0], target) ||
      !parse_real(fields[1], mean) || mean <= 0.0) {
    return false;
  }
  out = {target, Duration::seconds_f(mean)};
  return true;
}

/// "START,DURATION,INTENSITY": minutes, minutes, rate multiplier > 1.
bool parse_storm(std::string_view text, StormParams& out) {
  double v[3]{};
  if (!parse_reals(text, v) || v[0] < 0.0 || v[1] <= 0.0 || v[2] <= 1.0) {
    return false;
  }
  out.start = Duration::seconds_f(v[0] * 60.0);
  out.duration = Duration::seconds_f(v[1] * 60.0);
  out.intensity = v[2];
  return true;
}

/// "RANKS" or "RANKS@R1,R2,...": candidate ranks to target, optionally
/// restricted to the listed regions. RANKS may be 0 (inert).
bool parse_target_churn(std::string_view text, std::uint32_t& ranks,
                        std::vector<std::uint32_t>& regions) {
  const auto at = text.find('@');
  if (!parse_uint(text.substr(0, at), ranks)) return false;
  if (at == std::string_view::npos) return true;
  for (const std::string_view field : split_commas(text.substr(at + 1))) {
    if (!parse_uint(field, regions.emplace_back())) return false;
  }
  return true;
}

/// "REGION,START,DURATION": region index, then minutes. A zero duration is
/// accepted and inert (the flags-present-but-zeroed determinism contract).
bool parse_region_partition(std::string_view text,
                            CliOptions::RegionPartitionOpt& out) {
  const auto fields = split_commas(text);
  std::size_t region = 0;
  double start = 0.0;
  double duration = 0.0;
  if (fields.size() != 3 || !parse_uint(fields[0], region) ||
      !parse_real(fields[1], start) || !parse_real(fields[2], duration) ||
      start < 0.0 || duration < 0.0) {
    return false;
  }
  out = {region, start, duration};
  return true;
}

/// "TYPE:LOSS_MULT,DUP_MULT": interned-message-type loss/dup multipliers,
/// both >= 0 (1 = neutral, 0 = immune, >1 = starved).
bool parse_msg_bias(std::string_view text, sim::FaultConfig::MessageBias& out) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  double v[2]{};
  if (!parse_reals(text.substr(colon + 1), v) || v[0] < 0.0 || v[1] < 0.0) {
    return false;
  }
  out.type = std::string{text.substr(0, colon)};
  out.loss_mult = v[0];
  out.dup_mult = v[1];
  return true;
}

/// Comma-separated adversary role list. On failure returns an error message
/// naming the offending token and its position — a role list is a little
/// source file, and "parse error" without a location is useless at 2am.
std::optional<std::string> parse_adversary_roles(
    const std::string& text,
    std::vector<sim::FaultConfig::Adversary::Role>& out) {
  using Role = sim::FaultConfig::Adversary::Role;
  std::string rest = text;
  std::size_t entry = 1;
  while (true) {
    const auto comma = rest.find(',');
    const std::string token = rest.substr(0, comma);
    if (token == "underbid") {
      out.push_back(Role::kUnderbid);
    } else if (token == "blackhole") {
      out.push_back(Role::kBlackhole);
    } else if (token == "freeride") {
      out.push_back(Role::kFreeride);
    } else if (token == "poison") {
      out.push_back(Role::kPoison);
    } else {
      return "--adversary-roles: bad role \"" + token + "\" at entry " +
             std::to_string(entry) +
             " (want underbid|blackhole|freeride|poison)";
    }
    if (comma == std::string::npos) return std::nullopt;
    rest = rest.substr(comma + 1);
    ++entry;
  }
}

}  // namespace

std::optional<std::string> parse_cli(const std::vector<std::string>& args,
                                     CliOptions& out) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };

    if (a == "-h" || a == "--help") {
      out.show_help = true;
    } else if (a == "--list") {
      out.list_scenarios = true;
    } else if (a == "--quiet") {
      out.quiet = true;
    } else if (a == "--resched") {
      out.rescheduling = true;
    } else if (a == "--no-resched") {
      out.rescheduling = false;
    } else if (a == "--failsafe") {
      out.failsafe = true;
    } else if (a == "--healing") {
      out.healing = true;
    } else if (a == "--overload") {
      out.overload = true;
    } else if (a == "--hierarchy") {
      out.hierarchy = true;
    } else if (a == "--regions") {
      const auto v = next();
      if (!v || !parse_positive(*v, out.regions)) {
        return "--regions requires a positive integer";
      }
      out.hierarchy = true;
    } else if (a == "--queue-cap") {
      const auto v = next();
      if (!v || !parse_real(*v, out.queue_cap) || out.queue_cap <= 0.0) {
        return "--queue-cap requires a positive number (jobs per perf unit)";
      }
      out.overload = true;
    } else if (a == "--storm") {
      const auto v = next();
      StormParams storm;
      if (!v || !parse_storm(*v, storm)) {
        return "--storm requires START,DURATION,INTENSITY "
               "(minutes, minutes, multiplier > 1)";
      }
      out.storm = storm;
      out.overload = true;
    } else if (a == "--shards") {
      const auto v = next();
      if (!v || !parse_positive(*v, out.shards)) {
        return "--shards requires a positive integer";
      }
    } else if (a == "--pdes-verify") {
      out.pdes_verify = true;
    } else if (a == "--overlay") {
      const auto v = next();
      if (!v || (*v != "blatant" && *v != "random" && *v != "smallworld")) {
        return "--overlay requires blatant|random|smallworld";
      }
      out.overlay = *v;
    } else if (a == "--scenario") {
      const auto v = next();
      if (!v) return "--scenario requires a name";
      out.scenario = *v;
    } else if (a == "--csv") {
      const auto v = next();
      if (!v) return "--csv requires a directory";
      out.csv_dir = *v;
    } else if (a == "--trace") {
      const auto v = next();
      if (!v) return "--trace requires an output path";
      out.trace_path = *v;
    } else if (a == "--trace-jsonl") {
      const auto v = next();
      if (!v) return "--trace-jsonl requires an output path";
      out.trace_jsonl_path = *v;
    } else if (a == "--trace-sample") {
      const auto v = next();
      if (!v || !parse_positive(*v, out.trace_sample)) {
        return "--trace-sample requires a positive integer";
      }
    } else if (a == "--runs") {
      const auto v = next();
      if (!v || !parse_positive(*v, out.runs)) {
        return "--runs requires a positive integer";
      }
    } else if (a == "--seed") {
      const auto v = next();
      if (!v || !parse_uint(*v, out.seed)) {
        return "--seed requires a non-negative integer";
      }
    } else if (a == "--nodes") {
      const auto v = next();
      if (!v || !parse_positive(*v, out.nodes)) {
        return "--nodes requires a positive integer";
      }
    } else if (a == "--jobs") {
      const auto v = next();
      if (!v || !parse_positive(*v, out.jobs)) {
        return "--jobs requires a positive integer";
      }
    } else if (a == "--interval") {
      const auto v = next();
      if (!v || !parse_real(*v, out.interval_s) || out.interval_s <= 0.0) {
        return "--interval requires a positive number of seconds";
      }
    } else if (a == "--horizon") {
      const auto v = next();
      if (!v || !parse_real(*v, out.horizon_min) || out.horizon_min <= 0.0) {
        return "--horizon requires a positive number of minutes";
      }
    } else if (a == "--expand") {
      const auto v = next();
      std::pair<std::size_t, Duration> expand;
      if (!v || !parse_expand(*v, expand)) {
        return "--expand requires TARGET,MEAN_SECONDS (target node count, "
               "mean join interval)";
      }
      out.expand = expand;
    } else if (a == "--loss") {
      const auto v = next();
      if (!v || !parse_probability(*v, out.loss)) {
        return "--loss requires a probability in [0,1]";
      }
    } else if (a == "--dup") {
      const auto v = next();
      if (!v || !parse_probability(*v, out.duplicate)) {
        return "--dup requires a probability in [0,1]";
      }
    } else if (a == "--spike") {
      const auto v = next();
      if (!v || !parse_probability(*v, out.spike)) {
        return "--spike requires a probability in [0,1]";
      }
    } else if (a == "--churn") {
      out.churn = true;
    } else if (a == "--partition") {
      const auto v = next();
      std::pair<double, double> window;
      if (!v || !parse_partition(*v, window)) {
        return "--partition requires START,DURATION in minutes";
      }
      out.partitions.push_back(window);
    } else if (a == "--fault-seed") {
      const auto v = next();
      if (!v || !parse_uint(*v, out.fault_seed)) {
        return "--fault-seed requires a non-negative integer";
      }
    } else if (a == "--target-churn") {
      const auto v = next();
      if (!v ||
          !parse_target_churn(*v, out.target_churn_ranks,
                              out.target_churn_regions)) {
        return "--target-churn requires RANKS or RANKS@R1,R2,... "
               "(candidate ranks, optional region list)";
      }
    } else if (a == "--region-partition") {
      const auto v = next();
      CliOptions::RegionPartitionOpt rp;
      if (!v || !parse_region_partition(*v, rp)) {
        return "--region-partition requires REGION,START,DURATION "
               "(region index, minutes, minutes)";
      }
      out.region_partitions.push_back(rp);
    } else if (a == "--msg-fault-bias") {
      const auto v = next();
      sim::FaultConfig::MessageBias bias;
      if (!v || !parse_msg_bias(*v, bias)) {
        return "--msg-fault-bias requires TYPE:LOSS_MULT,DUP_MULT "
               "(e.g. REGION_DIGEST:25,1)";
      }
      out.msg_fault_bias.push_back(bias);
    } else if (a == "--adversaries") {
      const auto v = next();
      if (!v || !parse_probability(*v, out.adversaries)) {
        return "--adversaries requires a node fraction in [0,1]";
      }
    } else if (a == "--lie-factor") {
      const auto v = next();
      if (!v || !parse_real(*v, out.lie_factor) || out.lie_factor < 1.0) {
        return "--lie-factor requires a factor >= 1";
      }
    } else if (a == "--adversary-roles") {
      const auto v = next();
      if (!v) {
        return "--adversary-roles requires a comma-separated list "
               "(underbid|blackhole|freeride|poison)";
      }
      if (auto err = parse_adversary_roles(*v, out.adversary_roles)) {
        return err;
      }
    } else if (a == "--adversary-seed") {
      const auto v = next();
      if (!v || !parse_uint(*v, out.adversary_seed)) {
        return "--adversary-seed requires a non-negative integer";
      }
    } else if (a == "--defenses") {
      out.defenses = true;
    } else if (a == "--audit") {
      out.audit = true;
    } else {
      return "unknown option: " + a;
    }
  }
  return std::nullopt;
}

std::string cli_usage() {
  return R"(aria_sim — run ARiA evaluation scenarios (ICDCS 2010 reproduction)

usage: aria_sim [options]
  --list              list the 26 Table-II scenarios and exit
  --scenario NAME     scenario to run (default: iMixed)
  --runs N            repetitions with seeds seed..seed+N-1 (default: 1)
  --seed S            base seed (default: 1)
  --nodes N           override the grid size
  --jobs N            override the job count
  --interval SECS     override the base submission interval
  --horizon MIN       override the simulated horizon (minutes)
  --expand T,MEAN_S   override the expansion plan: grow to T nodes, one
                      join every MEAN_S seconds on average (arms a default
                      plan on non-expanding scenarios)
  --resched           force dynamic rescheduling on
  --no-resched        force dynamic rescheduling off
  --failsafe          enable initiator-side crash recovery (NOTIFY traffic)
  --healing           enable the self-healing overlay plane: PING/PONG
                      liveness probes, dead-neighbor eviction, churn-aware
                      link repair (docs/overlay.md)
  --overlay KIND      overlay family: blatant (default) | random | smallworld
  --overload          enable the overload plane: bounded queues, admission
                      control with REJECT answers, bid suppression and
                      shed-and-forward rescheduling (docs/overload.md)
  --queue-cap F       queued jobs allowed per unit of performance index
                      (default 6; implies --overload)
  --storm S,D,I       request storm: starting S minutes into the submission
                      phase, for D minutes, jobs arrive I× faster
                      (implies --overload)
  --hierarchy         enable the hierarchical discovery plane: super-peer
                      regions, region-scoped floods, cross-region delegation
                      through load-digest aggregators (docs/hierarchy.md)
  --regions N         partition the overlay into N regions (implies
                      --hierarchy; default: auto-size to ~128 nodes/region)
  --csv DIR           write idle/completed series as CSV into DIR
  --quiet             print only the summary block
  -h, --help          this text

sharded execution (docs/pdes.md; incompatible with --healing, --expand,
tracing and --audit — the runner rejects those combinations):
  --shards N          split the simulation over N worker threads by overlay
                      region, under a conservative barrier-window executor;
                      same-seed results are byte-identical to --shards 1
  --pdes-verify       run each seed twice — sequential oracle, then sharded
                      (--shards N) — with send journals on, compare every
                      metric and the canonical event journals, and exit
                      nonzero naming the first divergent event on mismatch

tracing (docs/tracing.md; either output path enables the tracing plane and
a per-job critical-path summary — metrics stay byte-identical either way):
  --trace PATH        write a Chrome trace_event JSON file for the first
                      run; load it at ui.perfetto.dev or chrome://tracing
  --trace-jsonl PATH  write the raw event stream as JSON Lines (one object
                      per record; byte-identical across same-seed runs)
  --trace-sample N    record every Nth wire message (default: 16)

fault injection (see docs/faults.md; any of these enables the fault plane,
acknowledged delegation, and — with --churn — the failsafe):
  --loss P            drop each message with probability P
  --dup P             deliver each message twice with probability P
  --spike P           add a latency spike with probability P
  --churn             crash/restart a fraction of the nodes on a schedule
  --partition S,D     split the grid for D minutes starting at minute S
                      (repeatable for multiple windows)
  --fault-seed S      fault schedule seed (default: derived from --seed)

targeted faults (docs/faults.md "Targeted faults"; these aim at the
hierarchy's weak points instead of sampling uniformly):
  --target-churn N[@R1,R2,...]
                      churn aimed at aggregator candidates of ranks 0..N-1,
                      optionally only in the listed regions (implies
                      --hierarchy and the failsafe; 0 is inert)
  --region-partition R,S,D
                      sever region R — members and aggregators — from the
                      rest of the grid for D minutes starting at minute S
                      (repeatable; implies --hierarchy; D=0 is inert)
  --msg-fault-bias TYPE:L,D
                      multiply the --loss rate by L and the --dup rate by D
                      for messages of TYPE only (repeatable; e.g.
                      REGION_DIGEST:25,1 starves digests; a modifier — it
                      never enables the fault plane by itself)

adversarial nodes (docs/adversary.md; --adversaries arms the fault plane,
acknowledged delegation and the failsafe):
  --adversaries F     designate fraction F of the nodes as adversaries via a
                      stateless hash (expansion joiners included); each gets
                      one role from the --adversary-roles pool
  --adversary-roles L comma-separated role pool (default: all four):
                      underbid (quote costs /LIE), blackhole (ACK ASSIGNs,
                      never run), freeride (advertise deflated INFORM
                      costs), poison (inflate REGION_DIGEST idle claims)
  --lie-factor X      how hard adversaries lie (default: 4)
  --adversary-seed S  designation seed (default: derived from the fault
                      stream; set it to pin the same cast across scenarios)
  --defenses          enable the defense plane: promise-vs-delivery
                      reputation with credibility-discounted bid ranking,
                      suspicion-based offer filtering and overlay eviction,
                      straggler revoke + hedged re-dispatch, digest sanity
                      clamping (implies the failsafe and acknowledged
                      delegation; docs/adversary.md)

auditing (docs/audit.md):
  --audit             run the online invariant auditor: exactly-once
                      completion, offers-before-delegation, digest
                      conservation, resolved cross-region delegations,
                      recovery budgets. Metrics stay byte-identical;
                      violations print and make aria_sim exit nonzero
)";
}

ScenarioConfig resolve_scenario(const CliOptions& options) {
  ScenarioConfig cfg = scenario_by_name(options.scenario);
  if (options.nodes != 0) cfg.node_count = options.nodes;
  if (options.jobs != 0) cfg.job_count = options.jobs;
  if (options.interval_s > 0.0) {
    cfg.submission_interval = Duration::seconds_f(options.interval_s);
  }
  if (options.horizon_min > 0.0) {
    cfg.horizon = Duration::seconds_f(options.horizon_min * 60.0);
  }
  if (options.expand) {
    if (!cfg.expansion) cfg.expansion = ScenarioConfig::Expansion{};
    cfg.expansion->target_node_count = options.expand->first;
    cfg.expansion->mean_interval = options.expand->second;
  }
  if (options.rescheduling) {
    cfg.aria.dynamic_rescheduling = *options.rescheduling;
  }
  if (options.failsafe) cfg.aria.failsafe = true;
  if (options.healing) cfg.aria.healing.enabled = true;
  if (options.overload) {
    cfg.aria.overload.enabled = true;
    // Saturated nodes refuse ASSIGNs; the delegator must hear the REJECT
    // reliably enough to re-discover, so acknowledged delegation rides
    // along (the same hardening the fault plane requires).
    cfg.aria.assign_ack = true;
    if (options.queue_cap > 0.0) {
      cfg.aria.overload.capacity_per_perf = options.queue_cap;
    }
  }
  if (options.storm) cfg.storm = options.storm;
  if (options.hierarchy) {
    cfg.aria.hierarchy.enabled = true;
    if (options.regions != 0) cfg.aria.hierarchy.region_count = options.regions;
  }
  if (options.tracing()) {
    cfg.trace.enabled = true;
    cfg.trace.message_sample_every = options.trace_sample;
  }
  cfg.shards = options.shards;
  if (options.overlay == "random") {
    cfg.overlay_family = ScenarioConfig::OverlayFamily::kRandomRegular;
  } else if (options.overlay == "smallworld") {
    cfg.overlay_family = ScenarioConfig::OverlayFamily::kSmallWorld;
  }
  if (options.any_faults()) {
    cfg.faults.enabled = true;
    cfg.faults.seed = options.fault_seed != 0 ? options.fault_seed
                                              : options.seed ^ 0xFA017D15ULL;
    cfg.faults.loss = options.loss;
    cfg.faults.duplicate = options.duplicate;
    cfg.faults.spike = options.spike;
    if (options.churn) {
      cfg.faults.churn = sim::FaultConfig::Churn{};
      // Crashed assignees lose their queues; without the failsafe those
      // jobs would be stranded forever.
      cfg.aria.failsafe = true;
    }
    for (const auto& [start, duration] : options.partitions) {
      cfg.faults.partitions.push_back(sim::FaultConfig::Partition{
          Duration::seconds_f(start * 60.0),
          Duration::seconds_f(duration * 60.0), 0.5});
    }
    if (options.target_churn_ranks > 0) {
      // Role-targeted churn only makes sense against the hierarchy, and it
      // crashes exactly the nodes holding other people's jobs — the
      // failsafe rides along for the same reason it does with --churn.
      sim::FaultConfig::TargetedChurn tc;
      tc.ranks = options.target_churn_ranks;
      tc.regions = options.target_churn_regions;
      cfg.faults.targeted_churn = tc;
      cfg.aria.hierarchy.enabled = true;
      cfg.aria.failsafe = true;
    }
    for (const auto& rp : options.region_partitions) {
      if (rp.duration_min <= 0.0) continue;  // inert zeroed window
      cfg.faults.region_partitions.push_back(sim::FaultConfig::RegionPartition{
          static_cast<std::uint32_t>(rp.region),
          Duration::seconds_f(rp.start_min * 60.0),
          Duration::seconds_f(rp.duration_min * 60.0)});
      cfg.aria.hierarchy.enabled = true;
    }
    // Message-class bias modifies the loss/dup sources above; attaching it
    // only when the plane is armed keeps a bias-only invocation inert.
    cfg.faults.message_bias = options.msg_fault_bias;
    if (options.adversaries > 0.0) {
      sim::FaultConfig::Adversary adv;
      adv.fraction = options.adversaries;
      if (options.lie_factor > 0.0) adv.lie_factor = options.lie_factor;
      if (!options.adversary_roles.empty()) {
        adv.roles = options.adversary_roles;
      } else {
        using Role = sim::FaultConfig::Adversary::Role;
        adv.roles = {Role::kUnderbid, Role::kBlackhole, Role::kFreeride,
                     Role::kPoison};
      }
      adv.seed = options.adversary_seed;
      cfg.faults.adversary = adv;
      // Black holes ACK and swallow; only the initiator's watchdog gets
      // those jobs back.
      cfg.aria.failsafe = true;
    }
    // A lossy wire can eat an ASSIGN outright; acknowledged delegation is
    // the matching protocol hardening.
    cfg.aria.assign_ack = true;
  }
  if (options.defenses) {
    // The defenses ride the same machinery the fault flags arm: straggler
    // revoke/hedge needs the failsafe's watchdog table and per-attempt
    // assign ids, and reputation observations come off NOTIFY + ACK paths.
    cfg.aria.defense.enabled = true;
    cfg.aria.failsafe = true;
    cfg.aria.assign_ack = true;
  }
  if (options.any_faults() && cfg.aria.hierarchy.enabled) {
    // Chaos hardening rides along whenever faults run against the
    // hierarchy, mirroring how fault flags imply assign_ack: sustained
    // silence (a fully dead candidate list) escalates to a wide flood
    // early, on a clamped backoff. Fault-free --hierarchy runs keep the
    // knobs at 0 and stay byte-identical to the unhardened plane.
    if (cfg.aria.hierarchy.escalate_silent_rounds == 0) {
      cfg.aria.hierarchy.escalate_silent_rounds = 2;
      cfg.aria.hierarchy.silent_backoff_factor_cap = 2;
    }
  }
  if (options.audit) cfg.audit.enabled = true;
  return cfg;
}

}  // namespace aria::workload
