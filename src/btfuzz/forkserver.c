/* Fork server for `btfuzz fuzz`, loaded into a native target with LD_PRELOAD.
 *
 * btfuzz starts the target once with BTFUZZ_FORKSRV set to "CTL,ST", or to
 * "CTL,ST=PRELOAD" when the user had LD_PRELOAD set to PRELOAD.  Before main
 * runs, this constructor restores the user's LD_PRELOAD, so that processes
 * the target starts never run a server, and says hello on ST.  Then, for
 * each go word read from CTL, it forks: the child returns into main on the
 * input btfuzz has just written, and the server reports the child's pid and
 * then its raw wait status on ST.  Each child leads a process group of its
 * own, made before its pid is reported, so that btfuzz can kill it and the
 * processes it starts without signalling the server.  EOF on CTL ends the
 * server.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

static int put(int fd, int word) { return write(fd, &word, sizeof word) == sizeof word; }

__attribute__((constructor)) static void btfuzz_forkserver(void) {
    const char *spec = getenv("BTFUZZ_FORKSRV");
    int ctl, st, used = 0, go, status;
    if (!spec || sscanf(spec, "%d,%d%n", &ctl, &st, &used) != 2)
        return;
    if (spec[used] == '=')
        setenv("LD_PRELOAD", spec + used + 1, 1);
    else
        unsetenv("LD_PRELOAD");
    unsetenv("BTFUZZ_FORKSRV");
    prctl(PR_SET_PDEATHSIG, SIGKILL); /* the worker's death ends the server */
    pid_t server = getpid();
    if (write(st, "BTFZ", 4) != 4)
        _exit(1);
    while (read(ctl, &go, sizeof go) == sizeof go) {
        pid_t pid = fork();
        if (pid == 0) {
            setpgid(0, 0);
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != server) /* the server died before prctl */
                _exit(1);
            close(ctl);
            close(st);
            lseek(0, 0, SEEK_SET); /* stdin is the input file, or not seekable */
            return;
        }
        if (pid > 0)
            setpgid(pid, pid); /* whichever of the two runs first */
        if (pid < 0 || !put(st, pid) || waitpid(pid, &status, 0) != pid || !put(st, status))
            _exit(1);
    }
    _exit(0);
}
