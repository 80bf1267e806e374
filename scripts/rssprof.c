// LD_PRELOAD resident-set split for `scripts/profile.sh --rss`: when the
// program opens /proc/self/status — the benchmark does so once, at its end,
// to read `VmHWM` for `peak_rss_mb` — the hook first writes to
// $RSSPROF_OUT the peak and current resident set and where the current one
// sits, from /proc/self/smaps: a line "hwm <KB>", a line "rss <KB>", then
// one line "<KB> <class> <name>" per class of mapping — `heap` ([heap]),
// `anon` (every other mapping without a file: thread stacks, the
// executable's bss, mmap'd allocations), `exe` (the executable's segments,
// named `text`, `read-only` or `data` by their permissions) and `object`
// (one line per other file, named by its path). The open itself then goes
// ahead unchanged. The hook reads and writes through system calls and
// static buffers: it allocates nothing, so the heap it measures is the
// program's.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

#define MAX_CLASSES 256

struct class {
    char kind[8];
    char name[256];
    unsigned long kb;
};
static struct class classes[MAX_CLASSES];
static int used;
static char exe[4096];

// The hook's own opens go straight to the kernel, past the hooks below.
static int raw_open(const char *path, int flags, int mode) {
    return syscall(SYS_openat, AT_FDCWD, path, flags, mode);
}

static void add(const char *kind, const char *name, unsigned long kb) {
    for (int i = 0; i < used; i++)
        if (!strcmp(classes[i].kind, kind) && !strcmp(classes[i].name, name)) {
            classes[i].kb += kb;
            return;
        }
    if (used == MAX_CLASSES) return;
    snprintf(classes[used].kind, sizeof classes[used].kind, "%s", kind);
    snprintf(classes[used].name, sizeof classes[used].name, "%s", name);
    classes[used++].kb = kb;
}

// Calls `line` on each line of the file at `path`, read through one
// static buffer; a line longer than the buffer is dropped.
static void each_line(const char *path, void (*line)(char *)) {
    static char buf[1 << 16];
    int fd = raw_open(path, O_RDONLY | O_CLOEXEC, 0);
    if (fd < 0) return;
    size_t have = 0;
    for (;;) {
        ssize_t got = read(fd, buf + have, sizeof buf - 1 - have);
        if (got <= 0) break;
        have += got;
        buf[have] = 0;
        char *start = buf, *end;
        while ((end = strchr(start, '\n'))) {
            *end = 0;
            line(start);
            start = end + 1;
        }
        have -= start - buf;
        memmove(buf, start, have);
        if (have == sizeof buf - 1) have = 0;
    }
    close(fd);
}

static unsigned long hwm, rss;

static void status_line(char *l) {
    if (!strncmp(l, "VmHWM:", 6)) hwm = strtoul(l + 6, NULL, 10);
    if (!strncmp(l, "VmRSS:", 6)) rss = strtoul(l + 6, NULL, 10);
}

// The mapping the `Rss:` lines that follow belong to.
static char kind[8], name[256];

static void smaps_line(char *l) {
    if (!strncmp(l, "Rss:", 4)) {
        add(kind, name, strtoul(l + 4, NULL, 10));
        return;
    }
    // A mapping's header is "start-end perms offset dev inode [path]"; the
    // other lines are "Key: value", a colon before the first space.
    char *colon = strchr(l, ':'), *space = strchr(l, ' ');
    if (colon && (!space || colon < space)) return;
    char perms[8];
    int path_at = 0;
    if (sscanf(l, "%*x-%*x %7s %*x %*s %*u %n", perms, &path_at) < 1 || !path_at) return;
    const char *path = l + path_at;
    if (!*path || (*path == '[' && strcmp(path, "[heap]"))) {
        strcpy(kind, "anon");
        snprintf(name, sizeof name, "anonymous mappings");
    } else if (!strcmp(path, "[heap]")) {
        strcpy(kind, "heap");
        strcpy(name, "[heap]");
    } else if (!strcmp(path, exe)) {
        strcpy(kind, "exe");
        strcpy(name, perms[2] == 'x' ? "text" : perms[1] == 'w' ? "data" : "read-only");
    } else {
        strcpy(kind, "object");
        snprintf(name, sizeof name, "%s", path);
    }
}

static void report(void) {
    const char *out = getenv("RSSPROF_OUT");
    if (!out) return;
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = 0;
    used = 0;
    each_line("/proc/self/status", status_line);
    each_line("/proc/self/smaps", smaps_line);
    int fd = raw_open(out, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return;
    dprintf(fd, "hwm %lu\nrss %lu\n", hwm, rss);
    for (int i = 0; i < used; i++) dprintf(fd, "%lu %s %s\n", classes[i].kb, classes[i].kind, classes[i].name);
    close(fd);
}

static void seen(const char *path) {
    if (path && !strcmp(path, "/proc/self/status")) report();
}

// The program's opens of a path by name: `open64` is the one Rust's
// `std::fs` calls on glibc, `open` a C program's. The mode argument is there
// only when the flags ask to create a file.
static int mode_of(int flags, va_list ap) {
    return (flags & O_CREAT) || (flags & O_TMPFILE) == O_TMPFILE ? va_arg(ap, int) : 0;
}

int open(const char *path, int flags, ...) {
    static int (*next)(const char *, int, ...);
    if (!next) next = dlsym(RTLD_NEXT, "open");
    va_list ap;
    va_start(ap, flags);
    int mode = mode_of(flags, ap);
    va_end(ap);
    seen(path);
    return next(path, flags, mode);
}

int open64(const char *path, int flags, ...) {
    static int (*next)(const char *, int, ...);
    if (!next) next = dlsym(RTLD_NEXT, "open64");
    va_list ap;
    va_start(ap, flags);
    int mode = mode_of(flags, ap);
    va_end(ap);
    seen(path);
    return next(path, flags, mode);
}
