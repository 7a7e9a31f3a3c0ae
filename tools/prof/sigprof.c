// A sampling CPU profiler to LD_PRELOAD into any binary of this repository
// (no perf needed). ITIMER_PROF delivers SIGPROF every PROF_HZ-th of a CPU
// second of the process (any thread); the handler walks the frame-pointer
// chain of the interrupted thread and stores the return addresses. At exit
// the samples go to $PROF_OUT (one line per sample, innermost PC first, hex)
// and /proc/self/maps to $PROF_OUT.maps, for tools/prof/symbolize.py.
//
// Build and run (the profiled code needs frame pointers):
//   cc -O2 -fPIC -shared -o /tmp/libsigprof.so tools/prof/sigprof.c
//   PROF_OUT=/tmp/prof.txt LD_PRELOAD=/tmp/libsigprof.so <command>
//   python3 tools/prof/symbolize.py /tmp/prof.txt
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

enum { kMaxDepth = 48, kMaxSamples = 1 << 16, kStackSpan = 64 << 20 };

typedef struct {
    uint32_t depth;
    uintptr_t pc[kMaxDepth];
} Sample;

static Sample* samples;
static atomic_uint next;
static atomic_uint dropped;

static void onProf(int sig, siginfo_t* info, void* raw)
{
    (void)sig;
    (void)info;
    const unsigned at = atomic_fetch_add(&next, 1);
    if (samples == NULL || at >= kMaxSamples) {
        atomic_fetch_add(&dropped, 1);
        return;
    }
    const ucontext_t* uc = (const ucontext_t*)raw;
    Sample* s = &samples[at];
#if defined(__x86_64__)
    const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    s->pc[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    const uintptr_t sp = (uintptr_t)uc->uc_mcontext.sp;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
    s->pc[0] = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof: unsupported architecture"
#endif
    uint32_t depth = 1;
    // Follow saved frame pointers only upwards within the interrupted
    // thread's stack: a frame without a frame pointer ends the walk rather
    // than reading outside it.
    while (depth < kMaxDepth && fp >= sp && fp < sp + kStackSpan && (fp & 7u) == 0) {
        const uintptr_t* frame = (const uintptr_t*)fp;
        const uintptr_t ret = frame[1];
        if (ret < 4096) {
            break;
        }
        s->pc[depth++] = ret;
        if (frame[0] <= fp) {
            break;
        }
        fp = frame[0];
    }
    s->depth = depth;
}

static void dumpFile(const char* from, const char* to)
{
    FILE* in = fopen(from, "r");
    FILE* out = fopen(to, "w");
    if (in != NULL && out != NULL) {
        char buf[4096];
        size_t n;
        while ((n = fread(buf, 1, sizeof buf, in)) > 0) {
            fwrite(buf, 1, n, out);
        }
    }
    if (in != NULL) {
        fclose(in);
    }
    if (out != NULL) {
        fclose(out);
    }
}

__attribute__((destructor)) static void sigprofStop(void)
{
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    if (samples == NULL) {
        return;
    }
    const char* path = getenv("PROF_OUT");
    if (path == NULL || *path == '\0') {
        path = "prof.txt";
    }
    FILE* out = fopen(path, "w");
    if (out == NULL) {
        return;
    }
    unsigned n = atomic_load(&next);
    n = n < kMaxSamples ? n : kMaxSamples;
    for (unsigned i = 0; i < n; ++i) {
        for (uint32_t d = 0; d < samples[i].depth; ++d) {
            fprintf(out, d == 0 ? "%lx" : " %lx", (unsigned long)samples[i].pc[d]);
        }
        fputc('\n', out);
    }
    fclose(out);
    char maps[4096];
    snprintf(maps, sizeof maps, "%s.maps", path);
    dumpFile("/proc/self/maps", maps);
    fprintf(stderr, "sigprof: %u samples to %s (%u dropped)\n", n, path,
            atomic_load(&dropped));
}

__attribute__((constructor)) static void sigprofStart(void)
{
    samples = calloc(kMaxSamples, sizeof(Sample));
    if (samples == NULL) {
        return;
    }
    const char* hz = getenv("PROF_HZ");
    long rate = hz != NULL ? strtol(hz, NULL, 10) : 997;
    rate = rate < 1 ? 1 : rate > 10000 ? 10000 : rate;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    const long usec = 1000000 / rate;
    const struct itimerval on = {{usec / 1000000, usec % 1000000},
                                 {usec / 1000000, usec % 1000000}};
    setitimer(ITIMER_PROF, &on, NULL);
}
