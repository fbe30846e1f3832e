/**
 * @file
 * Quickstart: the Fig. 7 example — a simple round-robin scheduler
 * running N static user-level threads on the real LibPreemptible
 * runtime.
 *
 * Each "thread" is a preemptible function that counts; the scheduler
 * launches them once and then keeps resuming whichever was preempted,
 * round-robin, until everyone finished. Preemption is delivered by
 * LibUtimer by directed signal (the paper's non-UINTR path), so
 * even the never-yielding counting loops cannot monopolise the worker.
 *
 *   ./quickstart [--threads=4] [--quantum-ms=2] [--work-ms=20]
 */

#include <cstdio>
#include <vector>

#include "common/cli.hh"
#include "obs/session.hh"
#include "preemptible/hosttime.hh"
#include "preemptible/preemptible_fn.hh"
#include "preemptible/utimer.hh"

using namespace preempt;
using namespace preempt::runtime;

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);
    obs::Session obsSession(cli);
    int n_threads = static_cast<int>(cli.getInt("threads", 4));
    TimeNs quantum = msToNs(static_cast<double>(
        cli.getDouble("quantum-ms", 2.0)));
    TimeNs work = msToNs(static_cast<double>(cli.getDouble("work-ms", 20.0)));
    cli.rejectUnknown();

    // utimer_init: one timer thread for the whole process.
    UTimer timer;
    timer.init();

    // utimer_register: this thread becomes the (only) worker.
    workerInit(timer);

    // N static user-level threads, each spinning for work-ms of CPU.
    std::vector<std::unique_ptr<PreemptibleFn>> fns;
    std::vector<TimeNs> progress(static_cast<std::size_t>(n_threads), 0);
    for (int i = 0; i < n_threads; ++i) {
        fns.push_back(std::make_unique<PreemptibleFn>([&, i] {
            TimeNs start = hostNowNs();
            while (hostNowNs() - start < work) {
                // Simulated request work; no yields — preemption is
                // the only way the scheduler regains control.
                progress[static_cast<std::size_t>(i)] =
                    hostNowNs() - start;
            }
        }));
    }

    // The Fig. 7 round-robin loop: launch everyone once, then resume
    // in order until all functions completed.
    std::printf("round-robin over %d user-level threads, quantum %.1f ms\n",
                n_threads, nsToMs(quantum));
    int live = n_threads;
    for (int i = 0; i < n_threads; ++i) {
        if (fn_launch(*fns[static_cast<std::size_t>(i)], quantum) ==
            FnStatus::Completed)
            --live;
    }
    int rounds = 0;
    while (live > 0) {
        ++rounds;
        for (auto &fn : fns) {
            if (fn_completed(*fn))
                continue;
            if (fn_resume(*fn, quantum) == FnStatus::Completed)
                --live;
        }
    }

    for (int i = 0; i < n_threads; ++i) {
        std::printf("  thread %d: preempted %d times, ran %.1f ms\n", i,
                    fns[static_cast<std::size_t>(i)]->preemptions(),
                    nsToMs(progress[static_cast<std::size_t>(i)]));
    }
    std::printf("all %d threads completed after %d resume rounds; "
                "timer fired %llu preemptions (signal delivery)\n",
                n_threads, rounds,
                static_cast<unsigned long long>(timer.firesTotal()));

    workerShutdown();
    timer.shutdown();
    return 0;
}
