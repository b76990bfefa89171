// The deterministic parallel runtime: thread-pool mechanics (task queue,
// exception propagation, ordered map) and the headline guarantee — a
// federated experiment produces ELEMENT-EXACT identical results for any
// thread count, faults and checkpoint/resume included (DESIGN.md §7).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>

#include "data/partition.h"
#include "data/synthetic_image.h"
#include "defense/ditto.h"
#include "fl/client.h"
#include "kernels/kernels.h"
#include "nn/zoo.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "sim/runner.h"

namespace collapois {
namespace {

// --- pool mechanics ----------------------------------------------------

TEST(RuntimePool, RejectsZeroThreads) {
  EXPECT_THROW(runtime::ThreadPool(0), std::invalid_argument);
}

TEST(RuntimePool, ResolveThreadCount) {
  EXPECT_GE(runtime::default_thread_count(), 1u);
  EXPECT_LE(runtime::default_thread_count(), 16u);
  EXPECT_EQ(runtime::resolve_thread_count(0), runtime::default_thread_count());
  EXPECT_EQ(runtime::resolve_thread_count(3), 3u);
}

TEST(RuntimePool, ParallelForRunsEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(RuntimePool, ParallelForWithZeroTasksIsANoop) {
  runtime::ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(RuntimePool, ExceptionPropagatesToSubmittingThread) {
  runtime::ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i % 7 == 0) {
                            throw std::runtime_error("task failed");
                          }
                        }),
      std::runtime_error);
  // The pool survives a throwing batch and runs the next one.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(RuntimePool, ReusableAfterMidFanOutThrow) {
  // Regression for the round loop's failure mode: one client task throws
  // while the rest of the fan-out is still executing. The pool must drain
  // the batch without wedging its queue or poisoning worker state, so the
  // NEXT round's dispatch on the same pool completes normally.
  runtime::ThreadPool pool(4);
  std::atomic<std::size_t> started{0};
  EXPECT_THROW(
      pool.parallel_for(256,
                        [&](std::size_t i) {
                          ++started;
                          if (i == 13) {
                            throw std::runtime_error("mid-fan-out failure");
                          }
                          // Busy work keeps other workers in flight when
                          // the throw lands.
                          volatile int spin = 0;
                          while (spin < 2000) spin = spin + 1;
                        }),
      std::runtime_error);
  EXPECT_GT(started.load(), 0u);
  // Several follow-up "rounds" on the same pool, both dispatch flavors.
  for (int round = 0; round < 3; ++round) {
    const std::vector<std::size_t> out = runtime::parallel_map(
        &pool, 64, [](std::size_t i) { return i + 1; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(RuntimePool, ParallelMapPreservesIndexOrder) {
  runtime::ThreadPool pool(4);
  const std::vector<std::size_t> out =
      runtime::parallel_map(&pool, 200, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 200u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(RuntimePool, NullPoolRunsInline) {
  // nullptr is the sequential baseline: same helper, calling thread.
  std::vector<int> order;
  runtime::parallel_for(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_THROW(runtime::parallel_for(
                   nullptr, 3,
                   [](std::size_t) { throw std::logic_error("inline"); }),
               std::logic_error);
}

TEST(RuntimePool, SingleWorkerPoolCompletesLargeBatch) {
  runtime::ThreadPool pool(1);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 499500u);
}

// VmSize of this process in bytes, or 0 if /proc/self/status lacks it.
std::size_t virtual_size_bytes() {
  std::ifstream in("/proc/self/status");
  std::string key;
  std::size_t kib = 0;
  while (in >> key) {
    if (key == "VmSize:" && in >> kib) return kib * 1024;
    in.ignore(4096, '\n');
  }
  return 0;
}

// Death-test child: cap the address space so std::thread fails partway
// through ThreadPool's constructor, then exit 0 iff that failure surfaced
// as std::system_error. The alarm turns a hang into a failure.
[[noreturn]] void construct_pool_under_address_cap() {
  const std::size_t vm = virtual_size_bytes();
  if (vm == 0) std::exit(3);
  const rlim_t cap = vm + (rlim_t{256} << 20);
  const rlimit limit{cap, cap};
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::exit(4);
  alarm(30);
  try {
    runtime::ThreadPool pool(4096);
  } catch (const std::system_error&) {
    std::exit(0);
  }
  std::exit(1);  // every thread started: the cap did not bite
}

// The constructor must join the workers it already started and rethrow;
// unwinding past them either aborts (a joinable std::thread is destroyed)
// or blocks in the condition variable's destructor.
TEST(RuntimePool, ConstructorFailureJoinsStartedWorkers) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow memory does not fit an address-space cap";
#else
  EXPECT_EXIT(construct_pool_under_address_cap(),
              ::testing::ExitedWithCode(0), "");
#endif
}

// --- determinism across thread counts ----------------------------------

sim::ExperimentConfig parallel_config() {
  sim::ExperimentConfig cfg;
  cfg.dataset = sim::DatasetKind::sentiment_like;
  cfg.n_clients = 12;
  cfg.samples_per_client = 40;
  cfg.rounds = 10;
  cfg.sample_prob = 0.5;  // cohorts big enough to exercise the pool
  cfg.compromised_fraction = 0.2;
  cfg.attack = sim::AttackKind::collapois;
  cfg.attack_start_round = 3;
  cfg.eval_every = 5;
  cfg.seed = 99;
  return cfg;
}

void expect_element_exact(const sim::ExperimentResult& a,
                          const sim::ExperimentResult& b) {
  ASSERT_EQ(a.final_global.size(), b.final_global.size());
  EXPECT_EQ(a.final_global, b.final_global);  // element-exact
  ASSERT_EQ(a.final_evals.size(), b.final_evals.size());
  for (std::size_t i = 0; i < a.final_evals.size(); ++i) {
    EXPECT_EQ(a.final_evals[i].benign_ac, b.final_evals[i].benign_ac);
    EXPECT_EQ(a.final_evals[i].attack_sr, b.final_evals[i].attack_sr);
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].n_accepted, b.rounds[i].n_accepted);
    EXPECT_EQ(a.rounds[i].n_dropped, b.rounds[i].n_dropped);
    EXPECT_EQ(a.rounds[i].n_rejected, b.rounds[i].n_rejected);
    EXPECT_EQ(a.rounds[i].cohort_size, b.rounds[i].cohort_size);
    EXPECT_EQ(a.rounds[i].distance_to_x, b.rounds[i].distance_to_x);
  }
}

TEST(RuntimeDeterminism, Threads1And4ProduceIdenticalResults) {
  // femnist_like trains LeNet, so the conv lowering runs both inside the
  // round pool's tasks and on the main thread during the Trojan strike
  // (attack_start_round 3 falls inside the run).
  for (const auto dataset :
       {sim::DatasetKind::sentiment_like, sim::DatasetKind::femnist_like}) {
    SCOPED_TRACE(sim::dataset_name(dataset));
    sim::ExperimentConfig cfg = parallel_config();
    cfg.dataset = dataset;
    cfg.threads = 1;
    const sim::ExperimentResult sequential = sim::run_experiment(cfg);
    ASSERT_FALSE(sequential.trojaned_model.empty());
    cfg.threads = 4;
    const sim::ExperimentResult parallel = sim::run_experiment(cfg);
    expect_element_exact(sequential, parallel);
    EXPECT_EQ(sequential.trojaned_model, parallel.trojaned_model);
  }
}

TEST(RuntimeDeterminism, HoldsUnderFaultInjection) {
  sim::ExperimentConfig cfg = parallel_config();
  cfg.faults.dropout_prob = 0.15;
  cfg.faults.straggler_prob = 0.15;
  cfg.faults.corrupt_prob = 0.1;
  cfg.threads = 1;
  const sim::ExperimentResult sequential = sim::run_experiment(cfg);
  cfg.threads = 4;
  const sim::ExperimentResult parallel = sim::run_experiment(cfg);
  expect_element_exact(sequential, parallel);
}

TEST(RuntimeDeterminism, CheckpointCrossesThreadCounts) {
  // A threads=1 straight run vs a threads=4 run checkpointed mid-campaign
  // and resumed with threads=4, under fault injection: the checkpoint
  // carries no trace of the thread count, so all three agree bit-exactly.
  sim::ExperimentConfig cfg = parallel_config();
  cfg.faults.dropout_prob = 0.15;
  cfg.faults.straggler_prob = 0.15;

  cfg.threads = 1;
  const sim::ExperimentResult straight = sim::run_experiment(cfg);

  const std::string path = ::testing::TempDir() + "runtime_threads_ck.bin";
  cfg.threads = 4;
  sim::RunOptions save;
  save.checkpoint_save_path = path;
  save.checkpoint_round = cfg.rounds / 2;
  const sim::ExperimentResult partial = sim::run_experiment(cfg, save);
  EXPECT_EQ(partial.rounds.size(), cfg.rounds / 2);

  sim::RunOptions resume;
  resume.checkpoint_load_path = path;
  const sim::ExperimentResult resumed = sim::run_experiment(cfg, resume);
  std::remove(path.c_str());

  ASSERT_EQ(resumed.final_global.size(), straight.final_global.size());
  EXPECT_EQ(resumed.final_global, straight.final_global);
  ASSERT_EQ(resumed.final_evals.size(), straight.final_evals.size());
  for (std::size_t i = 0; i < straight.final_evals.size(); ++i) {
    EXPECT_EQ(resumed.final_evals[i].benign_ac,
              straight.final_evals[i].benign_ac);
    EXPECT_EQ(resumed.final_evals[i].attack_sr,
              straight.final_evals[i].attack_sr);
  }
}

TEST(RuntimeDeterminism, HoldsUnderBothKernelSets) {
  // The thread-count guarantee must hold for each compute-kernel set
  // independently (the sets themselves round differently, so runs are
  // only compared within a set).
  for (const auto kind :
       {kernels::KernelKind::naive, kernels::KernelKind::blocked}) {
    SCOPED_TRACE(kernels::kernel_kind_name(kind));
    sim::ExperimentConfig cfg = parallel_config();
    cfg.kernels = kind;
    cfg.threads = 1;
    const sim::ExperimentResult sequential = sim::run_experiment(cfg);
    cfg.threads = 4;
    const sim::ExperimentResult parallel = sim::run_experiment(cfg);
    expect_element_exact(sequential, parallel);
  }
}

TEST(RuntimeDeterminism, FullParticipationFedDcMatchesAcrossThreads) {
  // FedDC threads per-client drift state through the parallel dispatch —
  // the stateful-client case the audit in fl/client.h is about.
  sim::ExperimentConfig cfg = parallel_config();
  cfg.algorithm = sim::AlgorithmKind::feddc;
  cfg.attack = sim::AttackKind::dba;
  cfg.sample_prob = 1.0;
  cfg.rounds = 6;
  cfg.threads = 1;
  const sim::ExperimentResult sequential = sim::run_experiment(cfg);
  cfg.threads = 4;
  const sim::ExperimentResult parallel = sim::run_experiment(cfg);
  expect_element_exact(sequential, parallel);
}

TEST(RuntimeDeterminism, ClientsSharingOneArchitectureMatchPrivateCopies) {
  // Training clients clone one read-only architecture per call. Run
  // concurrently over a single shared LeNet (so conv inputs, ReLU masks
  // and max-pool indices are cached inside each clone), they must match
  // the same clients built with private copies and run one at a time.
  stats::Rng rng(41);
  data::SyntheticImageGenerator gen({}, 42);
  const data::FederatedData fed =
      data::build_federation(gen, 21, 20, 1.0, rng);
  nn::Model lenet = nn::make_lenet_small({});
  lenet.init(rng);
  const tensor::FlatVec theta = lenet.get_parameters();
  const tensor::FlatVec next_theta = [&] {
    tensor::FlatVec v = theta;
    tensor::scale_inplace(v, 0.9);
    return v;
  }();
  const nn::SgdConfig sgd{.learning_rate = 0.05, .batch_size = 4,
                          .epochs = 1};

  // Clients 0-15 are benign, 16-19 FedDC and 20 Ditto. A null `shared`
  // gives every client a private copy of the architecture.
  auto build = [&](const std::shared_ptr<const nn::Model>& shared) {
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (std::size_t i = 0; i < fed.num_clients(); ++i) {
      auto arch = shared ? shared : std::make_shared<const nn::Model>(lenet);
      const data::Dataset* train = &fed.clients[i].train;
      stats::Rng crng(1000 + i);
      if (i < 16) {
        clients.push_back(std::make_unique<fl::BenignClient>(
            i, train, std::move(arch), sgd, 0.5, crng));
      } else if (i < 20) {
        clients.push_back(std::make_unique<fl::FedDcClient>(
            i, train, std::move(arch), sgd, 0.1, 0.5, crng));
      } else {
        clients.push_back(std::make_unique<defense::DittoClient>(
            i, train, std::move(arch), sgd, defense::DittoConfig{0.1, 1},
            0.5, crng));
      }
    }
    return clients;
  };
  // Two rounds of compute_update (FedDC's drift carries across them),
  // then eval_params on the personalizing clients.
  auto run = [&](std::vector<std::unique_ptr<fl::Client>>& clients,
                 runtime::ThreadPool* pool) {
    std::vector<tensor::FlatVec> out;
    std::size_t round = 0;
    for (const tensor::FlatVec* global : {&theta, &next_theta}) {
      const fl::RoundContext ctx{round++, *global};
      const auto updates = runtime::parallel_map(
          pool, clients.size(),
          [&](std::size_t i) { return clients[i]->compute_update(ctx); });
      for (const auto& u : updates) out.push_back(u.delta);
    }
    const auto evals = runtime::parallel_map(pool, 5, [&](std::size_t j) {
      return clients[16 + j]->eval_params(next_theta);
    });
    out.insert(out.end(), evals.begin(), evals.end());
    return out;
  };

  auto private_clients = build(nullptr);
  const std::vector<tensor::FlatVec> reference = run(private_clients, nullptr);

  const auto shared = std::make_shared<const nn::Model>(lenet);
  auto shared_clients = build(shared);
  runtime::ThreadPool pool(4);
  const std::vector<tensor::FlatVec> concurrent = run(shared_clients, &pool);

  ASSERT_EQ(concurrent.size(), reference.size());
  for (std::size_t k = 0; k < reference.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(concurrent[k], reference[k]);  // element-exact
  }
  EXPECT_EQ(shared->get_parameters(), theta);
}

}  // namespace
}  // namespace collapois
