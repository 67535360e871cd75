import java.lang.reflect.InvocationTargetException;
import java.lang.reflect.Method;
import java.lang.reflect.Modifier;
import java.util.ArrayDeque;
import java.util.Arrays;
import java.util.Collections;
import java.util.IdentityHashMap;
import java.util.Set;

/**
 * Runs one candidate's main class in a JVM that booted before the candidate was compiled.
 *
 * <p>Start it as the candidate would be started, {@code java <flags> -cp .[:deps] SynthesisLauncher},
 * in an empty directory that holds this class. It blocks until it reads one class name and a
 * newline from stdin; at the end of stdin before that, it halts at once. The sandbox then copies
 * the candidate's class files into the directory, writes the name and closes stdin, so the
 * candidate sees stdin at its end as under a cold {@code java}.
 *
 * <p>It loads the class without initialising it and checks for {@code public static void
 * main(String[])}, as the {@code java} launcher does. If that fails it refuses: it exits with
 * nothing written, and the sandbox runs the class in a cold {@code java}, which prints its own
 * error. Otherwise it writes one marker byte to stdout (the sandbox strips it), initialises the
 * class and calls {@code main} by plain reflection. A throwable that escapes is rethrown with this
 * class's and reflection's frames trimmed from the bottom of every trace in its cause and
 * suppressed chain, so the uncaught-exception report, the exit code and both streams read as from
 * {@code java <class>}. It uses no {@code java.lang.invoke}, which would cost start-up time.
 */
public final class SynthesisLauncher {
    /** Written to stdout once the class is accepted, before any of its code runs. */
    private static final int MARKER = 0x06;

    public static void main(String[] args) throws Throwable {
        String name = readName();
        if (name == null) {
            Runtime.getRuntime().halt(0);
        }
        Method main = mainOf(name);
        if (main == null) {
            return;
        }
        System.out.write(MARKER);
        System.out.flush();
        try {
            Class.forName(name, true, ClassLoader.getSystemClassLoader());
            main.invoke(null, (Object) new String[0]);
        } catch (InvocationTargetException e) {
            throw trimmed(e.getCause());
        } catch (Throwable e) {
            throw trimmed(e);
        }
    }

    /** The class name on stdin, or null when stdin ends first. */
    private static String readName() throws java.io.IOException {
        StringBuilder name = new StringBuilder();
        for (int b = System.in.read(); b != '\n'; b = System.in.read()) {
            if (b < 0) {
                return null;
            }
            name.append((char) b);
        }
        return name.toString();
    }

    /** The class's main method as the java launcher would call it, or null to refuse the class. */
    private static Method mainOf(String name) {
        try {
            Class<?> c = Class.forName(name, false, ClassLoader.getSystemClassLoader());
            Method main = c.getMethod("main", String[].class);
            if (c == SynthesisLauncher.class
                    || !Modifier.isStatic(main.getModifiers())
                    || main.getReturnType() != void.class) {
                return null;
            }
            main.setAccessible(true);
            return main;
        } catch (Throwable e) {
            return null;
        }
    }

    /** The throwable, with the launcher's frames cut from every trace it reaches. */
    private static Throwable trimmed(Throwable thrown) {
        Set<Throwable> seen = Collections.newSetFromMap(new IdentityHashMap<>());
        ArrayDeque<Throwable> todo = new ArrayDeque<>();
        todo.push(thrown);
        while (!todo.isEmpty()) {
            Throwable t = todo.pop();
            if (!seen.add(t)) {
                continue;
            }
            StackTraceElement[] frames = t.getStackTrace();
            int n = frames.length;
            while (n > 0 && isLauncherFrame(frames[n - 1])) {
                n--;
            }
            if (n < frames.length) {
                t.setStackTrace(Arrays.copyOf(frames, n));
            }
            if (t.getCause() != null) {
                todo.push(t.getCause());
            }
            for (Throwable s : t.getSuppressed()) {
                todo.push(s);
            }
        }
        return thrown;
    }

    /** A frame below the candidate's own: this class, the class initialisation or the reflective call. */
    private static boolean isLauncherFrame(StackTraceElement frame) {
        String cls = frame.getClassName();
        return cls.equals(SynthesisLauncher.class.getName())
                || cls.startsWith("jdk.internal.reflect.")
                || cls.equals("java.lang.reflect.Method")
                || cls.equals("java.lang.Class") && frame.getMethodName().startsWith("forName");
    }
}
